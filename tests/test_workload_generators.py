"""Unit tests for :mod:`repro.workloads.generators` and distributions."""

import numpy as np
import pytest

from repro.model import Schema
from repro.workloads.distributions import (
    normal_width,
    pareto_center,
    zipf_weights,
)
from repro.workloads.generators import (
    expand_to_cover,
    publication_inside,
    random_interval,
    random_publication,
    random_subscription,
    random_subscription_intersecting,
    shrink_inside,
    slab_partition,
)


@pytest.fixture
def schema():
    return Schema.uniform_integer(4, 0, 1000)


def _meets(a, b):
    """Whether two boxes share a point."""
    return bool(np.all(a.lows <= b.highs) and np.all(b.lows <= a.highs))


class TestDistributions:
    def test_zipf_weights_sum_to_one_and_decrease(self):
        weights = zipf_weights(10, skew=2.0)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(9))

    def test_zipf_weights_invalid(self):
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, skew=0)

    def test_pareto_center_within_bounds(self, rng):
        for _ in range(200):
            value = pareto_center(100.0, 200.0, skew=1.0, rng=rng)
            assert 100.0 <= value <= 200.0

    def test_pareto_center_biased_low(self, rng):
        values = [pareto_center(0.0, 1.0, rng=rng) for _ in range(2000)]
        assert np.mean(values) < 0.5

    def test_pareto_center_invalid(self):
        with pytest.raises(ValueError):
            pareto_center(10, 5)

    def test_normal_width_clipped(self, rng):
        for _ in range(200):
            width = normal_width(10.0, 5.0, minimum=2.0, maximum=12.0, rng=rng)
            assert 2.0 <= width <= 12.0

    def test_normal_width_invalid(self):
        with pytest.raises(ValueError):
            normal_width(0.0, 1.0)
        with pytest.raises(ValueError):
            normal_width(1.0, -1.0)


class TestRandomGenerators:
    def test_random_interval_width_band(self, schema, rng):
        domain = schema.domain(0)
        for _ in range(100):
            interval = random_interval(domain, rng, width_fraction=(0.1, 0.2))
            assert not interval.is_empty
            assert domain.lower_bound <= interval.low <= interval.high <= domain.upper_bound

    def test_random_subscription_valid(self, schema, rng):
        for _ in range(50):
            subscription = random_subscription(schema, rng)
            assert subscription.size() > 0

    def test_random_subscription_intersecting(self, schema, rng):
        reference = random_subscription(schema, rng)
        for _ in range(100):
            other = random_subscription_intersecting(reference, rng)
            assert _meets(reference, other)

    def test_random_subscription_cover_probability_one(self, schema, rng):
        reference = random_subscription(schema, rng, width_fraction=(0.1, 0.2))
        covered = random_subscription_intersecting(
            reference, rng, cover_probability=1.0
        )
        assert covered.covers(reference)

    def test_random_publication_in_domain(self, schema, rng):
        lows, highs = schema.full_bounds()
        for _ in range(50):
            publication = random_publication(schema, rng)
            assert np.all(publication.values >= lows)
            assert np.all(publication.values <= highs)

    def test_publication_inside(self, schema, rng):
        subscription = random_subscription(schema, rng)
        for _ in range(50):
            publication = publication_inside(subscription, rng)
            assert subscription.matches(publication)


class TestSlabPartition:
    def test_slabs_cover_exactly(self, schema, rng):
        from repro.core.exact import exact_group_cover

        subscription = random_subscription(schema, rng, width_fraction=(0.2, 0.4))
        slabs = slab_partition(subscription, 7, attribute=0)
        assert exact_group_cover(subscription, slabs)
        # and every slab is inside the subscription
        assert all(subscription.covers(slab) for slab in slabs)

    def test_no_single_slab_covers(self, schema, rng):
        subscription = random_subscription(schema, rng, width_fraction=(0.2, 0.4))
        slabs = slab_partition(subscription, 5, attribute=0)
        assert len(slabs) == 5
        assert not any(slab.covers(subscription) for slab in slabs)

    def test_slabs_are_disjoint_on_discrete_domains(self, schema, rng):
        subscription = random_subscription(schema, rng, width_fraction=(0.2, 0.4))
        slabs = slab_partition(subscription, 4, attribute=1)
        for i, a in enumerate(slabs):
            for b in slabs[i + 1:]:
                assert not _meets(a, b)

    def test_more_slabs_than_points(self, schema):
        from repro.model import Subscription

        narrow = Subscription.from_constraints(schema, {"x1": (10, 12)})
        slabs = slab_partition(narrow, 10, attribute=0)
        assert len(slabs) == 3

    def test_single_slab_is_the_box(self, schema, rng):
        subscription = random_subscription(schema, rng)
        slabs = slab_partition(subscription, 1, attribute=0)
        assert len(slabs) == 1
        assert slabs[0].same_box(subscription)

    def test_invalid_count(self, schema, rng):
        subscription = random_subscription(schema, rng)
        with pytest.raises(ValueError):
            slab_partition(subscription, 0)


class TestExpandShrink:
    def test_expand_to_cover(self, schema, rng):
        subscription = random_subscription(schema, rng)
        bigger = expand_to_cover(subscription)
        assert bigger.covers(subscription)

    def test_shrink_inside(self, schema, rng):
        subscription = random_subscription(schema, rng, width_fraction=(0.3, 0.5))
        for _ in range(20):
            smaller = shrink_inside(subscription, rng)
            assert subscription.covers(smaller)
            assert smaller.size() > 0
