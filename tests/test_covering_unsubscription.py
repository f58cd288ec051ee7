"""Regression tests for covering-unsubscription route loss.

When a subscription whose coverage suppressed the forwarding of other
subscriptions unsubscribes, the suppressed subscriptions must be
re-advertised on the affected links — otherwise their routes are silently
lost forever and every publication that only they match goes undelivered.
These tests pin the exact repro from the issue (subscribe(s1 ⊇ s2) →
unsubscribe(s1) → publish(p ∈ s2)) and then batter the fix with
unsubscribe storms across policies and canonical topologies.
"""

import numpy as np
import pytest

from repro.broker import (
    BrokerNetwork,
    CoveringPolicy,
    grid_topology,
    line_topology,
)
from repro.model import Publication, Schema, Subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid
    )


class TestIssueRepro:
    """The exact sequence from the bug report, under exact (pairwise) covering."""

    def _network(self, policy):
        network = BrokerNetwork(line_topology(3), policy=policy, rng=0)
        network.attach_client("sub-wide", "B1")
        network.attach_client("sub-narrow", "B1")
        network.attach_client("pub", "B3")
        return network

    def test_covered_route_survives_coverer_unsubscription(self, schema):
        network = self._network(CoveringPolicy.PAIRWISE)
        s1 = box(schema, (0, 60), (0, 60), sid="s1")  # the coverer
        s2 = box(schema, (10, 20), (10, 20), sid="s2")  # s2 ⊑ s1
        network.subscribe("sub-wide", s1)
        network.subscribe("sub-narrow", s2)
        # s2 was suppressed somewhere on the path toward B3.
        assert network.metrics.suppressed_subscriptions >= 1

        network.unsubscribe("sub-wide", "s1")

        publication = Publication.from_values(schema, {"x1": 15, "x2": 15})
        delivered = network.publish("pub", publication)
        assert {record.subscriber for record in delivered} == {"sub-narrow"}
        assert network.metrics.missed == []
        assert network.metrics.report()["delivery_ratio"] == 1.0

    def test_readvertisement_restores_downstream_routes(self, schema):
        network = self._network(CoveringPolicy.PAIRWISE)
        network.subscribe("sub-wide", box(schema, (0, 60), (0, 60), sid="s1"))
        network.subscribe("sub-narrow", box(schema, (10, 20), (10, 20), sid="s2"))
        # Suppression means B2/B3 only know s1 (plus s2 at its home broker).
        assert "s2" not in network.brokers["B3"].routing

        network.unsubscribe("sub-wide", "s1")
        # The re-advertisement propagated s2 all the way down the line.
        assert "s2" in network.brokers["B2"].routing
        assert "s2" in network.brokers["B3"].routing
        assert "s1" not in network.brokers["B2"].routing

    def test_readvertisement_counts_as_subscription_traffic(self, schema):
        network = self._network(CoveringPolicy.PAIRWISE)
        network.subscribe("sub-wide", box(schema, (0, 60), (0, 60), sid="s1"))
        network.subscribe("sub-narrow", box(schema, (10, 20), (10, 20), sid="s2"))
        before = network.metrics.subscription_messages
        network.unsubscribe("sub-wide", "s1")
        # The re-advertised s2 hops are accounted like any subscription hop.
        assert network.metrics.subscription_messages > before

    def test_suppression_bookkeeping_cleared_when_covered_sub_leaves(self, schema):
        network = self._network(CoveringPolicy.PAIRWISE)
        network.subscribe("sub-wide", box(schema, (0, 60), (0, 60), sid="s1"))
        network.subscribe("sub-narrow", box(schema, (10, 20), (10, 20), sid="s2"))
        broker = network.brokers["B1"]
        assert any("s2" in link.cover_links for link in broker.links.values())
        network.unsubscribe("sub-narrow", "s2")
        assert not any("s2" in link for link in broker.links.values())
        # s1's departure now has nothing to re-advertise and loses no mail.
        network.unsubscribe("sub-wide", "s1")
        publication = Publication.from_values(schema, {"x1": 15, "x2": 15})
        assert network.publish("pub", publication) == []
        assert network.metrics.missed == []


class TestGroupCoverDependencies:
    """Under the group policy the whole candidate set is a dependency."""

    def test_joint_cover_rechecked_when_one_member_leaves(self, schema):
        network = BrokerNetwork(line_topology(3), policy=CoveringPolicy.GROUP, rng=5)
        network.attach_client("subs", "B1")
        network.attach_client("pub", "B3")
        # a and b jointly (but not singly) cover c.
        network.subscribe("subs", box(schema, (0, 50), (0, 100), sid="a"))
        network.subscribe("subs", box(schema, (40, 100), (0, 100), sid="b"))
        network.subscribe("subs", box(schema, (10, 90), (10, 90), sid="c"))
        suppressed = network.metrics.suppressed_subscriptions

        network.unsubscribe("subs", "a")
        # c (only matched by c now in the gap a left behind) must be routable.
        publication = Publication.from_values(schema, {"x1": 20, "x2": 20})
        delivered = network.publish("pub", publication)
        assert {record.subscription_id for record in delivered} == {"c"}
        assert network.metrics.missed == []
        # the re-check ran through the probabilistic machinery
        assert network.metrics.subsumption_checks > suppressed


def _churn(network, schema, rng, subscriptions=24, publications=30):
    """Nested-box churn: subscribe everything, storm half, publish, repeat."""
    clients = [f"c{i}" for i in range(4)]
    for index, client in enumerate(clients):
        network.attach_client(client, network.broker_ids[index % len(network.broker_ids)])
    publisher = "publisher"
    network.attach_client(publisher, network.broker_ids[-1])

    live = []
    for index in range(subscriptions):
        # Alternate wide coverers and narrow covered boxes so every policy
        # has suppression opportunities.
        if index % 2 == 0:
            low = rng.integers(0, 30, size=2)
            high = low + rng.integers(40, 70, size=2)
        else:
            low = rng.integers(20, 40, size=2)
            high = low + rng.integers(5, 15, size=2)
        subscription = Subscription.from_constraints(
            schema,
            {
                "x1": (int(low[0]), int(min(high[0], 100))),
                "x2": (int(low[1]), int(min(high[1], 100))),
            },
            subscription_id=f"s{index:03d}",
        )
        client = clients[index % len(clients)]
        network.subscribe(client, subscription)
        live.append((client, subscription.id))

    def burst():
        for _ in range(publications // 3):
            publication = Publication(
                schema,
                [float(rng.integers(0, 101)), float(rng.integers(0, 101))],
            )
            network.publish(publisher, publication)

    burst()
    # Storm: remove a random half, in random order.
    order = rng.permutation(len(live))
    for position in order[: len(live) // 2]:
        client, sid = live[position]
        network.unsubscribe(client, sid)
    burst()
    # Second storm: remove the rest.
    for position in order[len(live) // 2:]:
        client, sid = live[position]
        network.unsubscribe(client, sid)
    burst()


TOPOLOGIES = {
    "chain": lambda: line_topology(4),
    "grid": lambda: grid_topology(2, 3),
}


class TestUnsubscribeStorms:
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("policy", [CoveringPolicy.NONE, CoveringPolicy.PAIRWISE])
    def test_deterministic_policies_lose_nothing(self, schema, topology, policy):
        for seed in (0, 1):
            network = BrokerNetwork(TOPOLOGIES[topology](), policy=policy, rng=seed)
            _churn(network, schema, np.random.default_rng(seed))
            assert network.metrics.missed == [], (
                f"{policy.value} on {topology} (seed {seed}) lost "
                f"{len(network.metrics.missed)} notifications"
            )
            assert network.metrics.report()["delivery_ratio"] == 1.0

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_group_policy_loss_is_bounded_and_accounted(self, schema, topology):
        network = BrokerNetwork(
            TOPOLOGIES[topology](), policy=CoveringPolicy.GROUP, rng=2, delta=1e-6
        )
        _churn(network, schema, np.random.default_rng(2))
        metrics = network.metrics
        # Loss, if any, is exactly what the oracle says went missing …
        assert metrics.missed_notifications == len(metrics.missed)
        assert (
            metrics.notifications + len(metrics.missed)
            == metrics.expected_notifications
        )
        # … and with delta=1e-6 the probabilistic checker is near-exact.
        assert metrics.report()["delivery_ratio"] >= 0.99

    def test_storm_then_publish_matches_oracle_routing_state(self, schema):
        """After a full storm, no stale routes remain anywhere."""
        network = BrokerNetwork(line_topology(4), policy=CoveringPolicy.PAIRWISE, rng=3)
        _churn(network, schema, np.random.default_rng(3))
        assert network.total_routing_entries() == 0
        for broker in network.brokers.values():
            assert all(link.total_count == 0 for link in broker.links.values())
            assert all(not link.cover_links for link in broker.links.values())
