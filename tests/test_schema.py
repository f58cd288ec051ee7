"""Unit tests for :mod:`repro.model.schema`."""

import math

import numpy as np
import pytest

from repro.model.attributes import Attribute, CategoricalDomain, IntegerDomain
from repro.model.errors import SchemaError
from repro.model.intervals import Interval
from repro.model.schema import Schema


@pytest.fixture
def mixed_schema():
    return Schema(
        [
            Attribute("price", IntegerDomain(0, 1000)),
            Attribute("brand", CategoricalDomain(["X", "Y", "Z"])),
            ("stock", IntegerDomain(0, 50)),
        ],
        name="mixed",
    )


class TestConstruction:
    def test_uniform_integer(self):
        schema = Schema.uniform_integer(4, 0, 99)
        assert schema.m == 4
        assert schema.names == ("x1", "x2", "x3", "x4")
        assert schema.domain(0).upper_bound == 99.0

    def test_uniform_integer_rejects_non_positive_m(self):
        with pytest.raises(SchemaError):
            Schema.uniform_integer(0)

    def test_requires_attributes(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(SchemaError):
            Schema([("a", IntegerDomain(0, 1)), ("a", IntegerDomain(0, 2))])

    def test_accepts_tuples_and_attributes(self, mixed_schema):
        assert mixed_schema.m == 3
        assert mixed_schema.names == ("price", "brand", "stock")


class TestLookups:
    def test_index_of(self, mixed_schema):
        assert mixed_schema.index_of("brand") == 1

    def test_index_of_unknown_raises(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.index_of("missing")

    def test_attribute_by_index_and_name(self, mixed_schema):
        assert mixed_schema.attribute(0).name == "price"
        assert mixed_schema.attribute("stock").name == "stock"

    def test_attribute_invalid_index(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.attribute(7)

    def test_attribute_invalid_key_type(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.attribute(1.5)

    def test_equality_and_hash(self):
        a = Schema.uniform_integer(2, 0, 10)
        b = Schema.uniform_integer(2, 0, 10)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Schema.uniform_integer(3, 0, 10)


class TestGeometry:
    def test_full_bounds(self, mixed_schema):
        lows, highs = mixed_schema.full_bounds()
        assert lows.tolist() == [0.0, 0.0, 0.0]
        assert highs.tolist() == [1000.0, 2.0, 50.0]

    def test_measure(self, mixed_schema):
        lows = np.array([0.0, 0.0, 0.0])
        highs = np.array([9.0, 1.0, 4.0])
        assert mixed_schema.measure(lows, highs) == 10 * 2 * 5

    def test_measure_empty(self, mixed_schema):
        lows = np.array([5.0, 0.0, 0.0])
        highs = np.array([4.0, 1.0, 4.0])
        assert mixed_schema.measure(lows, highs) == 0.0


class TestEncoding:
    def test_encode_point(self, mixed_schema):
        point = mixed_schema.encode_point({"price": 100, "brand": "Y", "stock": 5})
        assert point.tolist() == [100.0, 1.0, 5.0]

    def test_encode_point_missing_attribute(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.encode_point({"price": 100})

    def test_encode_constraints_defaults_to_full_range(self, mixed_schema):
        lows, highs = mixed_schema.encode_constraints({"price": (10, 20)})
        assert lows[0] == 10.0 and highs[0] == 20.0
        assert lows[1] == 0.0 and highs[1] == 2.0

    def test_encode_constraints_single_value(self, mixed_schema):
        lows, highs = mixed_schema.encode_constraints({"brand": "Z"})
        assert lows[1] == highs[1] == 2.0

    def test_encode_constraints_star(self, mixed_schema):
        lows, highs = mixed_schema.encode_constraints({"price": "*"})
        assert lows[0] == 0.0 and highs[0] == 1000.0

    def test_encode_constraints_interval(self, mixed_schema):
        lows, highs = mixed_schema.encode_constraints({"price": Interval(5, 7)})
        assert lows[0] == 5.0 and highs[0] == 7.0

    def test_to_dict(self, mixed_schema):
        payload = mixed_schema.to_dict()
        assert payload["name"] == "mixed"
        assert len(payload["attributes"]) == 3


class TestMemoisedFacts:
    """A schema's attribute tuple never changes, so what derives from it is
    computed once — without leaking into other processes or other callers."""

    def test_hash_is_computed_once_and_agrees_with_equality(self, mixed_schema):
        twin = Schema(mixed_schema.attributes, name="another name")
        assert mixed_schema._hash is None
        assert hash(mixed_schema) == hash(twin) == hash(mixed_schema.attributes)
        assert mixed_schema._hash == hash(mixed_schema.attributes)
        assert mixed_schema == twin and mixed_schema == mixed_schema
        assert {mixed_schema: 1}[twin] == 1
        assert mixed_schema != Schema.uniform_integer(3, 0, 50)

    def test_cached_hash_is_not_pickled(self, mixed_schema):
        """String hashes are salted per process; a shard worker that
        unpickles a schema must hash it afresh."""
        import pickle

        hash(mixed_schema)
        mixed_schema.full_bounds()
        clone = pickle.loads(pickle.dumps(mixed_schema))
        assert clone._hash is None
        assert mixed_schema._hash is not None  # pickling left the original alone
        assert clone == mixed_schema and hash(clone) == hash(mixed_schema)
        assert clone.full_bounds()[1].tolist() == [1000.0, 2.0, 50.0]

    def test_identical_schemas_compare_without_touching_attributes(self):
        class Unequal(IntegerDomain):
            def __eq__(self, other):  # pragma: no cover - must not be reached
                raise AssertionError("identity should have short-circuited")

            __hash__ = IntegerDomain.__hash__

        schema = Schema([("a", Unequal(0, 9))])
        assert schema == schema

    def test_full_bounds_is_one_shared_read_only_pair(self, mixed_schema):
        lows, highs = mixed_schema.full_bounds()
        again = mixed_schema.full_bounds()
        assert again[0] is lows and again[1] is highs
        for bound in (lows, highs):
            with pytest.raises(ValueError):
                bound[0] = -1.0
        # the call sites that used to write into the pair copy it first
        encoded_lows, encoded_highs = mixed_schema.encode_constraints({"price": (10, 20)})
        assert (encoded_lows[0], encoded_highs[0]) == (10.0, 20.0)
        assert mixed_schema.full_bounds()[0][0] == 0.0
        from repro.model import Interval, Subscription

        narrowed = Subscription.from_constraints(
            mixed_schema, {"stock": Interval(-math.inf, 7)}
        )
        assert narrowed.highs.tolist() == [1000.0, 2.0, 7.0]
        assert Subscription.whole_space(mixed_schema).highs.tolist() == [1000.0, 2.0, 50.0]
        assert mixed_schema.full_bounds()[1].tolist() == [1000.0, 2.0, 50.0]
