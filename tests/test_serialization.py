"""Unit tests for :mod:`repro.model.serialization`."""

import json

import pytest

from repro.model import (
    Publication,
    Schema,
    Subscription,
    publication_from_dict,
    publication_to_dict,
    schema_from_dict,
    schema_to_dict,
    subscription_from_dict,
    subscription_to_dict,
)
from repro.model.errors import DomainError, SerializationError
from repro.workloads.bike_rental import bike_rental_schema


@pytest.fixture
def schema():
    return Schema.uniform_integer(3, 0, 100, name="roundtrip")


class TestSchemaSerialization:
    def test_roundtrip_uniform(self, schema):
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored == schema
        assert restored.name == "roundtrip"

    def test_roundtrip_mixed_domains(self):
        schema = bike_rental_schema()
        restored = schema_from_dict(schema_to_dict(schema))
        assert restored.names == schema.names
        assert restored.domain("brand").values == schema.domain("brand").values

    def test_malformed_payload(self):
        with pytest.raises(SerializationError):
            schema_from_dict({"attributes": [{"name": "x"}]})

    def test_real_valued_domain_is_rejected(self, schema):
        # every domain is a finite ordered set of ticks; a real-valued
        # range read from outside the program is an unknown domain type
        payload = schema_to_dict(schema)
        payload["attributes"][1]["domain"] = {
            "type": "continuous", "lower": 0.0, "upper": 1.0, "resolution": 1e-9
        }
        with pytest.raises(DomainError, match="unknown domain type 'continuous'"):
            schema_from_dict(json.loads(json.dumps(payload)))


class TestSubscriptionSerialization:
    def test_roundtrip_dict(self, schema):
        subscription = Subscription.from_constraints(
            schema,
            {"x1": (1, 5), "x2": (2, 3)},
            subscriber="alice",
            metadata={"tag": "demo"},
        )
        restored = subscription_from_dict(subscription_to_dict(subscription), schema)
        assert restored.same_box(subscription)
        assert restored.id == subscription.id
        assert restored.subscriber == "alice"
        assert restored.metadata == {"tag": "demo"}

    def test_malformed_dict(self, schema):
        with pytest.raises(SerializationError):
            subscription_from_dict({"id": "x"}, schema)


class TestPublicationSerialization:
    def test_roundtrip(self, schema):
        publication = Publication.from_values(
            schema, {"x1": 1, "x2": 2, "x3": 3}, publisher="sensor"
        )
        restored = publication_from_dict(publication_to_dict(publication), schema)
        assert restored.id == publication.id
        assert restored.publisher == "sensor"
        assert restored.values.tolist() == publication.values.tolist()

    def test_malformed_dict(self, schema):
        with pytest.raises(SerializationError):
            publication_from_dict({"id": "p"}, schema)


class TestJsonText:
    """Payloads survive a trip through JSON text on every domain kind."""

    @pytest.fixture
    def mixed(self):
        return bike_rental_schema()

    def test_schema(self, mixed):
        text = json.dumps(schema_to_dict(mixed))
        assert schema_from_dict(json.loads(text)) == mixed

    def test_subscription(self, mixed):
        box = Subscription(
            mixed,
            [(lo + hi) // 2 for lo, hi in zip(*mixed.full_bounds())],
            mixed.full_bounds()[1],
            subscriber="s",
            metadata={"tags": ["a", "b"]},
        )
        restored = subscription_from_dict(
            json.loads(json.dumps(subscription_to_dict(box))), mixed
        )
        assert restored == box
        assert restored.same_box(box)
        assert restored.metadata == {"tags": ["a", "b"]}

    def test_publication(self, mixed):
        lows, _ = mixed.full_bounds()
        publication = Publication(mixed, lows, publisher="p")
        restored = publication_from_dict(
            json.loads(json.dumps(publication_to_dict(publication))), mixed
        )
        assert restored == publication
        assert restored.values.tolist() == lows.tolist()
