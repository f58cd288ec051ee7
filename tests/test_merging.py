"""Unit tests for :mod:`repro.core.merging` (the complementary technique)."""

import numpy as np
import pytest

from repro.core.merging import false_positive_volume, merge_pair
from repro.model import Schema, Subscription
from repro.workloads.generators import random_subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid
    )


class TestMergePair:
    def test_adjacent_boxes_merge_perfectly(self, schema):
        left = box(schema, (0, 49), (0, 99))
        right = box(schema, (50, 99), (0, 99))
        outcome = merge_pair(left, right)
        assert outcome.false_volume == 0.0
        assert outcome.merged.covers(left) and outcome.merged.covers(right)

    def test_diagonal_boxes_produce_false_volume(self, schema):
        a = box(schema, (0, 9), (0, 9))
        b = box(schema, (90, 99), (90, 99))
        outcome = merge_pair(a, b)
        assert outcome.false_volume > 0.0
        assert outcome.false_volume == outcome.merged.size() - a.size() - b.size()
        assert 0.0 < outcome.relative_overhead < 1.0

    def test_nested_boxes_merge_to_outer(self, schema):
        outer = box(schema, (0, 50), (0, 50))
        inner = box(schema, (10, 20), (10, 20))
        outcome = merge_pair(outer, inner)
        assert outcome.merged.same_box(outer)
        assert outcome.false_volume == 0.0

    def test_false_positive_volume_matches_oracle(self, schema):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_subscription(schema, rng, width_fraction=(0.1, 0.4))
            b = random_subscription(schema, rng, width_fraction=(0.1, 0.4))
            outcome = merge_pair(a, b)
            # The merged box always covers both inputs, and subtracting them
            # exactly accounts for the reported false volume.
            assert outcome.false_volume == false_positive_volume(
                outcome.merged, [a, b]
            )
            assert outcome.false_volume >= 0.0

