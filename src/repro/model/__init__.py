"""Data model for content-based publish/subscribe.

Publications are points in an ``m``-dimensional attribute space and
subscriptions are conjunctions of range predicates, i.e. axis-aligned
hyper-rectangles (convex polyhedra in the paper's terminology).  Attribute
values come from finite ordered *domains* (integer ranges, categorical
sets, timestamps) that all encode to integer ticks so the core algorithms
can treat every subscription uniformly as a box of ``[low, high]``
intervals.
"""

from repro.model.attributes import (
    Attribute,
    AttributeDomain,
    CategoricalDomain,
    IntegerDomain,
    TimestampDomain,
)
from repro.model.errors import (
    DomainError,
    ModelError,
    SchemaError,
    SerializationError,
    ValidationError,
)
from repro.model.intervals import Interval
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.serialization import (
    publication_from_dict,
    publication_to_dict,
    schema_from_dict,
    schema_to_dict,
    subscription_from_dict,
    subscription_to_dict,
)
from repro.model.subscriptions import Subscription

__all__ = [
    "Attribute",
    "AttributeDomain",
    "CategoricalDomain",
    "DomainError",
    "IntegerDomain",
    "Interval",
    "ModelError",
    "Publication",
    "Schema",
    "SchemaError",
    "SerializationError",
    "Subscription",
    "TimestampDomain",
    "ValidationError",
    "publication_from_dict",
    "publication_to_dict",
    "schema_from_dict",
    "schema_to_dict",
    "subscription_from_dict",
    "subscription_to_dict",
]
