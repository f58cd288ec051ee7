"""Unit tests for the Section 6.4 comparison workload and domain workloads."""

import numpy as np
import pytest

from repro.model import Schema
from repro.workloads.bike_rental import BikeRentalWorkload, bike_rental_schema
from repro.workloads.comparison import ComparisonWorkload
from repro.workloads.grid import GridWorkload, grid_schema


class TestComparisonWorkload:
    @pytest.fixture
    def workload(self):
        schema = Schema.uniform_integer(10, 0, 10_000)
        return ComparisonWorkload(schema, rng=42)

    def test_subscriptions_are_valid(self, workload):
        for subscription in workload.subscriptions(100):
            assert subscription.size() > 0

    def test_constrained_fraction_bounds_attribute_count(self, workload):
        counts = [
            sum(sub.constrains(j) for j in range(sub.m))
            for sub in workload.subscriptions(200)
        ]
        # constrained_fraction = 0.6 with m = 10: between 1 and 6 attributes,
        # with the full range of generality actually exercised.
        assert min(counts) >= 1
        assert max(counts) <= 6
        assert len(set(counts)) > 2

    def test_popular_attributes_constrained_more_often(self):
        schema = Schema.uniform_integer(10, 0, 10_000)
        workload = ComparisonWorkload(schema, rng=7, constrained_fraction=0.3)
        frequency = {name: 0 for name in schema.names}
        for subscription in workload.subscriptions(400):
            for name in schema.names:
                frequency[name] += subscription.constrains(name)
        # Zipf(2.0) popularity: the most popular attribute is constrained far
        # more often than the tail attributes.
        assert frequency["x1"] > 3 * frequency["x9"]

    def test_stream_is_lazy_and_counts(self, workload):
        stream = workload.stream(5)
        assert len(list(stream)) == 5

    def test_publications_valid_and_low_biased(self, workload):
        publications = workload.publications(300)
        values = np.array([p.values[0] for p in publications])
        assert values.min() >= 0
        assert values.max() <= 10_000
        assert np.median(values) < 5_000

    def test_reproducible_with_seed(self):
        schema = Schema.uniform_integer(5, 0, 1_000)
        a = ComparisonWorkload(schema, rng=3).subscriptions(10)
        b = ComparisonWorkload(schema, rng=3).subscriptions(10)
        for left, right in zip(a, b):
            assert left.same_box(right)

    def test_subscription_overlap_exists(self, workload):
        """Popularity-skewed interests must overlap reasonably often,
        otherwise the covering comparison would be meaningless."""
        subscriptions = workload.subscriptions(80)
        overlaps = 0
        for i, a in enumerate(subscriptions):
            for b in subscriptions[i + 1:]:
                if np.all(a.lows <= b.highs) and np.all(b.lows <= a.highs):
                    overlaps += 1
        assert overlaps > 0


class TestBikeRentalWorkload:
    def test_schema_matches_table1(self):
        schema = bike_rental_schema()
        assert schema.names == ("bID", "size", "brand", "rpID", "date")
        assert schema.m == 5

    def test_subscriptions_and_publications(self):
        workload = BikeRentalWorkload(rng=1)
        subscriptions = workload.subscriptions(20)
        publications = workload.publications(50)
        assert len({s.subscriber for s in subscriptions}) == 20
        assert all(s.size() > 0 for s in subscriptions)
        size = workload.schema.index_of("size")
        assert all(p.values[size] >= 14 for p in publications)

    def test_matching_publication_always_matches(self):
        workload = BikeRentalWorkload(rng=5)
        for subscription in workload.subscriptions(20):
            publication = workload.matching_publication(subscription)
            assert subscription.matches(publication)


class TestGridWorkload:
    def test_schema_matches_table2(self):
        schema = grid_schema()
        assert schema.names == ("CPUcycles", "disk", "memory", "service", "time")

    def test_service_subscriptions_valid(self):
        workload = GridWorkload(rng=2)
        services = workload.service_subscriptions(20)
        assert all(s.size() > 0 for s in services)
        assert all(s.subscriber.startswith("service-") for s in services)

    def test_matching_job_always_fits(self):
        workload = GridWorkload(rng=3)
        for service in workload.service_subscriptions(20):
            job = workload.matching_job(service)
            assert service.matches(job)

    def test_random_jobs_are_valid(self):
        workload = GridWorkload(rng=3)
        jobs = workload.job_publications(50)
        memory = workload.schema.index_of("memory")
        assert all(1 <= job.values[memory] <= 64 for job in jobs)
