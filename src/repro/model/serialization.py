"""Serialization of the data model to plain dictionaries and JSON.

Brokers in the distributed simulator exchange subscriptions and
publications as messages; serialization keeps those messages inspectable
and allows workloads to be persisted and replayed.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.model.attributes import Attribute, domain_from_dict
from repro.model.errors import SerializationError
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription

__all__ = [
    "schema_to_dict",
    "schema_from_dict",
    "subscription_to_dict",
    "subscription_from_dict",
    "publication_to_dict",
    "publication_from_dict",
]


def schema_to_dict(schema: Schema) -> Dict[str, Any]:
    """Serialize a schema."""
    return schema.to_dict()


def schema_from_dict(payload: Dict[str, Any]) -> Schema:
    """Deserialize a schema produced by :func:`schema_to_dict`."""
    try:
        attributes = [
            Attribute(
                item["name"],
                domain_from_dict(item["domain"]),
                item.get("description", ""),
            )
            for item in payload["attributes"]
        ]
        return Schema(attributes, name=payload.get("name", "schema"))
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed schema payload: {exc}") from exc


def subscription_to_dict(subscription: Subscription) -> Dict[str, Any]:
    """Serialize a subscription (bounds are stored in encoded form)."""
    return {
        "id": subscription.id,
        "subscriber": subscription.subscriber,
        "lows": [float(v) for v in subscription.lows],
        "highs": [float(v) for v in subscription.highs],
        "metadata": dict(subscription.metadata),
    }


def subscription_from_dict(payload: Dict[str, Any], schema: Schema) -> Subscription:
    """Deserialize a subscription produced by :func:`subscription_to_dict`."""
    try:
        return Subscription(
            schema,
            payload["lows"],
            payload["highs"],
            subscription_id=payload.get("id"),
            subscriber=payload.get("subscriber"),
            metadata=payload.get("metadata"),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed subscription payload: {exc}") from exc


def publication_to_dict(publication: Publication) -> Dict[str, Any]:
    """Serialize a publication (values are stored in encoded form)."""
    return {
        "id": publication.id,
        "publisher": publication.publisher,
        "values": [float(v) for v in publication.values],
        "metadata": dict(publication.metadata),
    }


def publication_from_dict(payload: Dict[str, Any], schema: Schema) -> Publication:
    """Deserialize a publication produced by :func:`publication_to_dict`."""
    try:
        return Publication(
            schema,
            payload["values"],
            publication_id=payload.get("id"),
            publisher=payload.get("publisher"),
            metadata=payload.get("metadata"),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed publication payload: {exc}") from exc
