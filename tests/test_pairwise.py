"""Unit tests for :mod:`repro.core.pairwise` (the classical baseline)."""

import pytest

from repro.core.pairwise import PairwiseCoverageChecker
from repro.model import Schema, Subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, **kwargs):
    return Subscription.from_constraints(schema, {"x1": x1, "x2": x2}, **kwargs)


class TestStatelessCheck:
    def test_detects_single_coverer(self, schema):
        s = box(schema, (10, 20), (10, 20))
        candidates = [box(schema, (50, 60), (50, 60)), box(schema, (0, 30), (0, 30))]
        result = PairwiseCoverageChecker.check(s, candidates)
        assert result.covered
        assert result.covering is candidates[1]
        assert result.comparisons == 2

    def test_union_cover_is_not_detected(self, table3_subscription, table3_candidates):
        """The baseline's key weakness: it misses group-only covers."""
        result = PairwiseCoverageChecker.check(table3_subscription, table3_candidates)
        assert not result.covered

    def test_empty_candidate_set(self, schema):
        result = PairwiseCoverageChecker.check(box(schema, (0, 1), (0, 1)), [])
        assert not result.covered
        assert result.comparisons == 0

