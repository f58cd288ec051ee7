"""Unit tests for :mod:`repro.model.publications`."""

import pytest

from repro.model import Publication, Schema
from repro.model.errors import ValidationError


@pytest.fixture
def schema():
    return Schema.uniform_integer(3, 0, 100)


class TestPublication:
    def test_from_values(self, schema):
        publication = Publication.from_values(schema, {"x1": 1, "x2": 2, "x3": 3})
        assert publication.values.tolist() == [1.0, 2.0, 3.0]

    def test_wrong_arity_rejected(self, schema):
        with pytest.raises(ValidationError):
            Publication(schema, [1.0, 2.0])

    def test_out_of_domain_rejected(self, schema):
        with pytest.raises(ValidationError):
            Publication(schema, [1.0, 2.0, 500.0])

    def test_values_read_only(self, schema):
        publication = Publication.from_values(schema, {"x1": 1, "x2": 2, "x3": 3})
        with pytest.raises(ValueError):
            publication.values[0] = 9.0

    def test_ids_unique(self, schema):
        a = Publication(schema, [0, 0, 0])
        b = Publication(schema, [0, 0, 0])
        assert a.id != b.id

    def test_equality(self, schema):
        a = Publication(schema, [1, 2, 3], publication_id="p")
        b = Publication(schema, [1, 2, 3], publication_id="p")
        assert a == b
        assert hash(a) == hash(b)
        assert a != "something else"
