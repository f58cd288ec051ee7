"""End-to-end integration tests combining workloads, matching and brokers.

These mirror the runnable examples: the bike-rental scenario on a single
matching node and the Grid scenario over a broker overlay, checking the
properties the examples print (equivalent notifications, reduced state and
traffic) automatically and at a smaller scale.
"""

import numpy as np
import pytest

from repro.broker import BrokerNetwork, CoveringPolicy, star_topology
from repro.core.store import CoveringPolicyName
from repro.core.subsumption import SubsumptionChecker
from repro.matching import MatchingEngine
from repro.workloads import BikeRentalWorkload, GridWorkload


class TestBikeRentalEndToEnd:
    @pytest.fixture(scope="class")
    def setup(self):
        workload = BikeRentalWorkload(rng=11)
        subscriptions = workload.subscriptions(120)
        publications = []
        for index in range(80):
            if index % 2 == 0:
                publications.append(workload.publication(publisher=f"post-{index}"))
            else:
                target = subscriptions[index % len(subscriptions)]
                publications.append(
                    workload.matching_publication(target, publisher=f"post-{index}")
                )
        return workload, subscriptions, publications

    def _engine(self, policy, seed=5):
        checker = SubsumptionChecker(delta=1e-9, max_iterations=1000, rng=seed)
        return MatchingEngine(policy=policy, checker=checker)

    def test_group_policy_reduces_active_set(self, setup):
        _, subscriptions, _ = setup
        flooding = self._engine(CoveringPolicyName.NONE)
        group = self._engine(CoveringPolicyName.GROUP)
        for subscription in subscriptions:
            flooding.subscribe(subscription.replace(subscription_id=f"{subscription.id}-f"))
            group.subscribe(subscription.replace(subscription_id=f"{subscription.id}-g"))
        assert len(group.active_subscriptions) < len(flooding.active_subscriptions)
        assert len(group) == len(flooding)

    def test_notifications_equivalent_across_policies(self, setup):
        _, subscriptions, publications = setup
        engines = {
            "flood": self._engine(CoveringPolicyName.NONE),
            "pairwise": self._engine(CoveringPolicyName.PAIRWISE),
            "group": self._engine(CoveringPolicyName.GROUP),
        }
        for name, engine in engines.items():
            for subscription in subscriptions:
                engine.subscribe(
                    subscription.replace(subscription_id=f"{subscription.id}-{name}")
                )
        total_mismatch = 0
        total_expected = 0
        for publication in publications:
            expected = set(engines["flood"].match(publication).subscribers)
            total_expected += len(expected)
            pairwise = set(engines["pairwise"].match(publication).subscribers)
            assert pairwise == expected
            group = set(engines["group"].match(publication).subscribers)
            assert group <= expected
            total_mismatch += len(expected - group)
        if total_expected:
            assert total_mismatch / total_expected <= 0.02

    def test_covering_reduces_matching_work(self, setup):
        _, subscriptions, publications = setup
        flooding = self._engine(CoveringPolicyName.NONE)
        group = self._engine(CoveringPolicyName.GROUP)
        for subscription in subscriptions:
            flooding.subscribe(subscription.replace(subscription_id=f"{subscription.id}-fl"))
            group.subscribe(subscription.replace(subscription_id=f"{subscription.id}-gr"))
        for publication in publications:
            flooding.match(publication)
            group.match(publication)
        assert group.stats["active_tests"] < flooding.stats["active_tests"]


class TestGridEndToEnd:
    def test_star_overlay_discovery(self):
        workload = GridWorkload(rng=21)
        services = workload.service_subscriptions(40)
        network = BrokerNetwork(
            star_topology(6), policy=CoveringPolicy.GROUP, rng=3, delta=1e-9
        )
        broker_ids = network.broker_ids
        for index, service in enumerate(services):
            broker = broker_ids[index % len(broker_ids)]
            network.attach_client(service.subscriber, broker)
            network.subscribe(service.subscriber, service)

        network.attach_client("gateway", broker_ids[0])
        for index in range(60):
            if index % 2 == 0:
                job = workload.job_publication(job_id=f"job-{index}")
            else:
                job = workload.matching_job(
                    services[index % len(services)], job_id=f"fit-{index}"
                )
            network.publish("gateway", job)

        metrics = network.metrics
        # Jobs reach (essentially) every fitting service.
        assert metrics.expected_notifications > 0
        assert metrics.report()["delivery_ratio"] >= 0.95
        # The covering policy suppressed at least some forwarding decisions.
        assert metrics.suppressed_subscriptions > 0
        # Sanity: routing state is bounded by services times brokers.
        assert network.total_routing_entries() <= len(services) * len(broker_ids)
