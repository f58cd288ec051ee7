"""Constraint specs as subscriptions are built from them.

Every subscription that names its constraints goes through
:meth:`Schema.encode_constraints` (via :meth:`Subscription.from_constraints`),
so the per-domain meaning of a spec -- equality, a ``(low, high)`` pair, an
:class:`Interval`, ``None``/``"*"`` -- and the closed-box matching that
follows from it are pinned here, one table row per case.
"""

from datetime import datetime, timezone

import pytest

from repro.model import Publication, Schema, Subscription
from repro.model.attributes import (
    Attribute,
    CategoricalDomain,
    IntegerDomain,
    TimestampDomain,
)
from repro.model.errors import DomainError, ModelError, SchemaError
from repro.model.intervals import Interval

# 2024-01-01T00:00:00Z is epoch second 1_704_067_200, hour 473_352.
HOUR0 = 1_704_067_200 // 3600


@pytest.fixture(scope="module")
def schema():
    return Schema(
        [
            Attribute("price", IntegerDomain(0, 100)),
            Attribute("brand", CategoricalDomain(["a", "b", "c", "d"])),
            Attribute(
                "at",
                TimestampDomain(
                    "2024-01-01T00:00:00", "2024-01-02T00:00:00", granularity_seconds=3600
                ),
            ),
        ],
        name="constraints",
    )


ACCEPTED = [
    # integer: equality, pairs, clipping, "any"
    ("int-equality", "price", 5, (5, 5)),
    ("int-pair", "price", (3, 9), (3, 9)),
    ("int-list-pair", "price", [3, 9], (3, 9)),
    ("int-degenerate-pair", "price", (7, 7), (7, 7)),
    ("int-pair-clipped-both-sides", "price", (-5, 200), (0, 100)),
    ("int-pair-clipped-above", "price", (90, 500), (90, 100)),
    ("int-interval-clipped", "price", Interval(-3, 4), (0, 4)),
    ("int-none", "price", None, (0, 100)),
    ("int-star", "price", "*", (0, 100)),
    ("int-float-equality", "price", 5.0, (5, 5)),
    ("int-interval", "price", Interval(10, 20), (10, 20)),
    # categorical: labels encode to their codes; a pair is a contiguous run
    ("label-equality", "brand", "c", (2, 2)),
    ("label-pair", "brand", ("b", "c"), (1, 2)),
    ("label-pair-whole-domain", "brand", ("a", "d"), (0, 3)),
    ("label-code", "brand", 1, (1, 1)),
    ("label-list-pair", "brand", ["a", "b"], (0, 1)),
    ("label-code-pair", "brand", (0, 2), (0, 2)),
    ("label-star", "brand", "*", (0, 3)),
    # timestamps: ISO strings and datetimes fall into granularity buckets
    ("time-equality", "at", "2024-01-01T05:30:00", (HOUR0 + 5, HOUR0 + 5)),
    (
        "time-pair-same-bucket-edges",
        "at",
        ("2024-01-01T05:00:00", "2024-01-01T06:59:59"),
        (HOUR0 + 5, HOUR0 + 6),
    ),
    (
        "time-datetime-pair",
        "at",
        (
            datetime(2024, 1, 1, 1, tzinfo=timezone.utc),
            datetime(2024, 1, 1, 3, tzinfo=timezone.utc),
        ),
        (HOUR0 + 1, HOUR0 + 3),
    ),
    (
        "time-pair-clipped-at-start",
        "at",
        ("2023-12-31T00:00:00", "2024-01-01T01:00:00"),
        (HOUR0, HOUR0 + 1),
    ),
    (
        "time-pair-clipped-at-end",
        "at",
        ("2024-01-01T23:00:00", "2024-01-05T00:00:00"),
        (HOUR0 + 23, HOUR0 + 24),
    ),
    ("time-epoch-seconds", "at", HOUR0 * 3600 + 7200, (HOUR0 + 2, HOUR0 + 2)),
    ("time-none", "at", None, (HOUR0, HOUR0 + 24)),
]


@pytest.mark.parametrize(
    "name, spec, expected",
    [row[1:] for row in ACCEPTED],
    ids=[row[0] for row in ACCEPTED],
)
def test_accepted_spec_encodes_to_interval(schema, name, spec, expected):
    subscription = Subscription.from_constraints(schema, {name: spec})
    assert subscription.interval(name) == Interval(*expected)
    # every attribute the spec does not name keeps its full domain
    for other in schema.names:
        if other != name:
            assert subscription.interval(other) == schema.domain(other).full_interval()
            assert not subscription.constrains(other)


REJECTED = [
    ("int-reversed-pair", "price", (9, 3), DomainError),
    ("int-string", "price", "x", DomainError),
    ("int-bool", "price", True, DomainError),
    ("int-pair-outside-domain", "price", (200, 300), ModelError),
    ("int-pair-with-none", "price", (None, 5), DomainError),
    ("int-triple", "price", (1, 2, 3), DomainError),
    ("label-reversed-pair", "brand", ("c", "b"), DomainError),
    ("label-unknown", "brand", "zzz", DomainError),
    ("label-code-out-of-range", "brand", 7, DomainError),
    ("time-garbage", "at", "not-a-date", DomainError),
    ("time-bool", "at", True, DomainError),
    (
        "time-reversed-pair",
        "at",
        ("2024-01-01T06:00:00", "2024-01-01T05:00:00"),
        DomainError,
    ),
    ("unknown-attribute", "colour", 1, SchemaError),
]


@pytest.mark.parametrize(
    "name, spec, error",
    [row[1:] for row in REJECTED],
    ids=[row[0] for row in REJECTED],
)
def test_rejected_spec_raises(schema, name, spec, error):
    with pytest.raises(error):
        Subscription.from_constraints(schema, {name: spec})


@pytest.fixture(scope="module")
def box(schema):
    return Subscription.from_constraints(
        schema,
        {
            "price": (10, 20),
            "brand": ("b", "c"),
            "at": ("2024-01-01T02:00:00", "2024-01-01T03:59:59"),
        },
        subscription_id="box",
    )


INSIDE = {"price": 15, "brand": "b", "at": "2024-01-01T02:30:00"}

MATCHING = [
    ("centre", {}, True),
    ("price-at-low-bound", {"price": 10}, True),
    ("price-at-high-bound", {"price": 20}, True),
    ("price-one-below", {"price": 9}, False),
    ("price-one-above", {"price": 21}, False),
    ("brand-last-label-of-run", {"brand": "c"}, True),
    ("brand-before-run", {"brand": "a"}, False),
    ("brand-after-run", {"brand": "d"}, False),
    ("brand-as-its-code", {"brand": 2}, True),
    ("price-at-domain-floor", {"price": 0}, False),
    ("time-first-second-of-bucket", {"at": "2024-01-01T02:00:00"}, True),
    ("time-last-second-of-bucket", {"at": "2024-01-01T03:59:59"}, True),
    ("time-bucket-before", {"at": "2024-01-01T01:59:59"}, False),
    ("time-bucket-after", {"at": "2024-01-01T04:00:00"}, False),
    # an offset moves the instant, not the bucket boundaries
    ("time-offset-inside", {"at": "2024-01-01T04:00:00+02:00"}, True),
    ("time-offset-after", {"at": "2024-01-01T06:00:00+02:00"}, False),
    ("every-attribute-at-a-corner", {"price": 20, "brand": "c"}, True),
]


@pytest.mark.parametrize(
    "changes, expected",
    [row[1:] for row in MATCHING],
    ids=[row[0] for row in MATCHING],
)
def test_box_matches_closed_on_every_side(schema, box, changes, expected):
    publication = Publication.from_values(schema, {**INSIDE, **changes})
    assert box.matches(publication) is expected
    assert box.contains_point(publication.values) is expected
