"""Unit tests for :mod:`repro.model.subscriptions`."""

import numpy as np
import pytest

from repro.model import Publication, Schema, Subscription
from repro.model.errors import ValidationError
from repro.model.intervals import Interval


@pytest.fixture
def schema():
    return Schema.uniform_integer(3, 0, 100)


@pytest.fixture
def box(schema):
    return Subscription.from_constraints(
        schema, {"x1": (10, 20), "x2": (30, 60)}, subscription_id="box"
    )


class TestConstruction:
    def test_from_constraints_defaults_unlisted_attributes(self, schema, box):
        assert box.interval("x1") == Interval(10, 20)
        assert box.interval("x2") == Interval(30, 60)
        assert box.interval("x3") == Interval(0, 100)

    def test_wrong_shape_rejected(self, schema):
        with pytest.raises(ValidationError):
            Subscription(schema, [0.0, 1.0], [2.0, 3.0])

    def test_empty_constraint_rejected(self, schema):
        from repro.model.errors import ModelError

        with pytest.raises(ModelError):
            Subscription.from_constraints(schema, {"x1": (20, 10)})

    def test_bounds_clipped_to_domain(self, schema):
        subscription = Subscription(schema, [-50, 0, 0], [500, 100, 100])
        assert subscription.interval("x1") == Interval(0, 100)

    def test_whole_space(self, schema):
        subscription = Subscription.whole_space(schema)
        assert subscription.size() == 101.0**3

    def test_ids_are_unique_when_autogenerated(self, schema):
        a = Subscription.whole_space(schema)
        b = Subscription.whole_space(schema)
        assert a.id != b.id

    def test_bounds_are_read_only(self, box):
        with pytest.raises(ValueError):
            box.lows[0] = 5.0


class TestIntrospection:
    def test_constrains(self, box):
        assert box.constrains("x1")
        assert not box.constrains("x3")

    def test_size_counts_integer_points(self, box):
        assert box.size() == 11 * 31 * 101

    def test_intervals_list(self, box):
        assert len(box.intervals()) == 3

    def test_describe_mentions_star(self, box):
        text = box.describe()
        assert "x3: *" in text
        assert "box" in text


class TestGeometry:
    def test_contains_point(self, box):
        assert box.contains_point([15, 45, 50])
        assert not box.contains_point([15, 70, 50])

    def test_contains_point_wrong_shape(self, box):
        with pytest.raises(ValidationError):
            box.contains_point([1, 2])

    def test_matches_publication(self, schema, box):
        inside = Publication.from_values(schema, {"x1": 12, "x2": 35, "x3": 99})
        outside = Publication.from_values(schema, {"x1": 9, "x2": 35, "x3": 99})
        assert box.matches(inside)
        assert not box.matches(outside)

    def test_covers_smaller_box(self, schema, box):
        smaller = Subscription.from_constraints(
            schema, {"x1": (12, 18), "x2": (40, 50)}
        )
        assert box.covers(smaller)
        assert not smaller.covers(box)

    def test_covers_requires_all_attributes(self, schema, box):
        partial = Subscription.from_constraints(
            schema, {"x1": (12, 18), "x2": (40, 70)}
        )
        assert not box.covers(partial)

    def test_covers_is_reflexive(self, box):
        assert box.covers(box)

    def test_union_hull(self, schema, box):
        other = Subscription.from_constraints(schema, {"x1": (50, 60), "x2": (0, 10)})
        hull = box.union_hull(other)
        assert hull.interval("x1") == Interval(10, 60)
        assert hull.interval("x2") == Interval(0, 60)
        assert hull.covers(box) and hull.covers(other)

    def test_same_box(self, schema, box):
        clone = Subscription.from_constraints(
            schema, {"x1": (10, 20), "x2": (30, 60)}, subscription_id="other-id"
        )
        assert box.same_box(clone)
        assert not box.same_box(Subscription.whole_space(schema))

    def test_cross_schema_operations_rejected(self, box):
        other_schema = Schema.uniform_integer(3, 0, 50, name="other")
        other = Subscription.whole_space(other_schema)
        with pytest.raises(ValidationError):
            box.covers(other)

    def test_sample_point_always_inside(self, box, schema):
        rng = np.random.default_rng(7)
        for _ in range(100):
            point = box.sample_point(rng)
            assert box.contains_point(point)
            assert float(point[0]).is_integer()


class TestCopies:
    def test_replace_constraints(self, schema, box):
        moved = box.replace(constraints={"x1": (40, 50)})
        assert moved.interval("x1") == Interval(40, 50)
        assert moved.interval("x2") == Interval(30, 60)
        assert moved.id == box.id

    def test_replace_subscriber(self, box):
        named = box.replace(subscriber="alice")
        assert named.subscriber == "alice"

    def test_equality_and_hash(self, schema):
        a = Subscription.from_constraints(schema, {"x1": (1, 2)}, subscription_id="s")
        b = Subscription.from_constraints(schema, {"x1": (1, 2)}, subscription_id="s")
        assert a == b
        assert hash(a) == hash(b)
        assert a != Subscription.from_constraints(
            schema, {"x1": (1, 3)}, subscription_id="s"
        )
        assert a != "not a subscription"


@pytest.mark.parametrize(
    "point, expected",
    [
        ([15, 45, 50], True),
        ([10, 30, 0], True),
        ([20, 60, 100], True),
        ([10, 60, 100], True),
        ([9.999, 45, 50], False),
        ([20.001, 45, 50], False),
        ([15, 29, 50], False),
        ([15, 61, 50], False),
        ([float("nan"), 45, 50], False),
    ],
    ids=[
        "inside",
        "low-corner",
        "high-corner",
        "mixed-corner",
        "below-x1",
        "above-x1",
        "below-x2",
        "above-x2",
        "nan",
    ],
)
def test_contains_values_agrees_with_contains_point(box, point, expected):
    assert box.contains_point(point) is expected
    assert box.contains_values(point) is expected
