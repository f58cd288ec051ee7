"""Unit tests for :mod:`repro.model.intervals`."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.intervals import Interval


class TestConstruction:
    def test_simple_interval(self):
        interval = Interval(1.0, 5.0)
        assert interval.low == 1.0
        assert interval.high == 5.0
        assert not interval.is_empty

    def test_empty_interval(self):
        assert Interval.empty().is_empty

    def test_reversed_bounds_are_empty(self):
        assert Interval(5.0, 1.0).is_empty


class TestCombinators:
    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 10)) == Interval(3, 5)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 2).intersection(Interval(3, 5)).is_empty

    def test_intersection_with_empty(self):
        assert Interval(0, 2).intersection(Interval.empty()).is_empty

    def test_clamp(self):
        assert Interval(0, 10).clamp(3, 7) == Interval(3, 7)
        assert Interval(0, 10).clamp(20, 30).is_empty


class TestMisc:
    def test_hashable_and_equal(self):
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert len({Interval(1, 2), Interval(1, 2)}) == 1


INF = float("inf")

INTERSECTIONS = [
    ("overlap", (0, 5), (3, 10), (3, 5)),
    ("nested", (0, 10), (2, 3), (2, 3)),
    ("identical", (1, 4), (1, 4), (1, 4)),
    ("touching-at-a-point", (0, 3), (3, 6), (3, 3)),
    ("one-side-unbounded", (-INF, 4), (2, 9), (2, 4)),
    ("both-unbounded", (-INF, INF), (-2, 2), (-2, 2)),
    ("disjoint", (0, 2), (3, 5), None),
    ("just-apart", (0, 2.5), (2.5000001, 5), None),
    ("empty-operand", (4, 1), (0, 10), None),
    ("point-inside", (2, 2), (0, 5), (2, 2)),
    ("point-outside", (7, 7), (0, 5), None),
    ("straddles-zero", (-1.5, 1.5), (0, 4), (0, 1.5)),
    ("both-empty", (3, 2), (5, 4), None),
    ("unbounded-halves-meet-at-zero", (-INF, 0), (0, INF), (0, 0)),
]


@pytest.mark.parametrize(
    "a, b, expected",
    [row[1:] for row in INTERSECTIONS],
    ids=[row[0] for row in INTERSECTIONS],
)
def test_intersection_table(a, b, expected):
    # closed intervals: shared endpoints belong to both, so the result
    # is the same in either order and never a non-canonical empty
    for left, right in ((a, b), (b, a)):
        result = Interval(*left).intersection(Interval(*right))
        if expected is None:
            assert result == Interval.empty()
        else:
            assert result == Interval(*expected)


@pytest.mark.parametrize(
    "bounds, clamp, expected",
    [
        ((0, 10), (3, 7), (3, 7)),
        ((4, 6), (0, 10), (4, 6)),
        ((-INF, INF), (0, 100), (0, 100)),
        ((0, 10), (10, 20), (10, 10)),
        ((0, 10), (20, 30), None),
        ((5, 5), (0, 10), (5, 5)),
        ((-3, 3), (0, 10), (0, 3)),
        ((3, 2), (0, 10), None),
        ((-INF, 0), (-5, 5), (-5, 0)),
    ],
    ids=[
        "inside",
        "already-inside",
        "unbounded",
        "edge",
        "outside",
        "point",
        "straddles-zero",
        "reversed",
        "half-unbounded",
    ],
)
def test_clamp_table(bounds, clamp, expected):
    result = Interval(*bounds).clamp(*clamp)
    assert result == (Interval.empty() if expected is None else Interval(*expected))


finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(finite, finite, finite, finite)
def test_intersection_lies_in_both_operands(a, b, c, d):
    x, y = Interval(a, b), Interval(c, d)
    meet = x.intersection(y)
    assert meet == y.intersection(x)
    if meet.is_empty:
        # an empty meet means an empty operand or no shared point
        assert x.is_empty or y.is_empty or b < c or d < a
    else:
        assert x.low <= meet.low <= meet.high <= x.high
        assert y.low <= meet.low <= meet.high <= y.high
        assert meet.intersection(x) == meet
