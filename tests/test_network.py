"""Integration tests for the broker overlay simulator."""

import pytest

from repro.broker import BrokerNetwork, CoveringPolicy, line_topology
from repro.model import Publication, Schema, Subscription
from repro.model.errors import ValidationError
from repro.workloads.generators import publication_inside


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid
    )


def build_paper_figure1_network(policy, rng=0):
    """The 9-broker overlay of Figure 1 (a tree)."""
    edges = [
        ("B1", "B3"),
        ("B2", "B3"),
        ("B3", "B4"),
        ("B4", "B5"),
        ("B4", "B6"),
        ("B4", "B7"),
        ("B7", "B8"),
        ("B7", "B9"),
    ]
    return BrokerNetwork(edges, policy=policy, rng=rng)


def _link_count(network):
    return sum(len(broker.links) for broker in network.brokers.values()) // 2


class TestTopologyConstruction:
    def test_brokers_created_on_demand(self, schema):
        network = BrokerNetwork([("A", "B"), ("B", "C")], policy=CoveringPolicy.NONE)
        assert set(network.broker_ids) == {"A", "B", "C"}
        assert _link_count(network) == 2
        assert list(network.brokers["B"].links) == ["A", "C"]

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            BrokerNetwork([("A", "A")])

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            BrokerNetwork([])

    def test_unknown_client_rejected(self, schema):
        network = BrokerNetwork(line_topology(2), policy=CoveringPolicy.NONE)
        with pytest.raises(KeyError):
            network.publish("ghost", Publication.from_values(schema, {"x1": 1, "x2": 1}))


class TestFigure1Scenario:
    """Reproduces the subscription/delivery-tree walkthrough of Section 2."""

    def test_covered_subscription_not_propagated_but_still_served(self, schema):
        network = build_paper_figure1_network(CoveringPolicy.PAIRWISE)
        network.attach_client("S1", "B1")
        network.attach_client("S2", "B6")
        network.attach_client("P1", "B9")
        network.attach_client("P2", "B5")

        s1 = box(schema, (0, 60), (0, 60), sid="s1")
        s2 = box(schema, (10, 20), (10, 20), sid="s2")  # s2 ⊑ s1
        network.subscribe("S1", s1)
        messages_after_s1 = network.metrics.subscription_messages
        # s1 floods the whole tree: one message per link.
        assert messages_after_s1 == _link_count(network)

        network.subscribe("S2", s2)
        # s2 is covered at B4 (which already knows s1), so it does not reach
        # B5, B7, B8, B9: only B6->B4 and B4->B3, B3->B1, B3->B2 carry it.
        assert (
            network.metrics.subscription_messages - messages_after_s1
            < _link_count(network)
        )
        assert network.metrics.suppressed_subscriptions >= 1

        # n1 published at P1 (B9) matches s2 and therefore also s1: both
        # subscribers must be notified even though s2 was never forwarded.
        n1 = Publication.from_values(schema, {"x1": 15, "x2": 15})
        delivered = network.publish("P1", n1)
        assert {record.subscriber for record in delivered} == {"S1", "S2"}

        # n2 published at P2 (B5) matches s1 but not s2.
        n2 = Publication.from_values(schema, {"x1": 50, "x2": 50})
        delivered = network.publish("P2", n2)
        assert {record.subscriber for record in delivered} == {"S1"}

        assert network.metrics.missed_notifications == 0
        assert network.metrics.report()["delivery_ratio"] == 1.0

    def test_flooding_policy_propagates_everything(self, schema):
        network = build_paper_figure1_network(CoveringPolicy.NONE)
        network.attach_client("S1", "B1")
        network.attach_client("S2", "B6")
        network.subscribe("S1", box(schema, (0, 60), (0, 60)))
        first = network.metrics.subscription_messages
        network.subscribe("S2", box(schema, (10, 20), (10, 20)))
        # Without covering, both subscriptions flood every link.
        assert network.metrics.subscription_messages == 2 * first


class TestPolicyComparison:
    def test_group_policy_reduces_subscription_traffic(self, schema, rng):
        """Group covering forwards no more subscriptions than pair-wise,
        which forwards no more than flooding (Table 3-style workload)."""
        results = {}
        for policy in (CoveringPolicy.NONE, CoveringPolicy.PAIRWISE, CoveringPolicy.GROUP):
            network = BrokerNetwork(
                line_topology(6), policy=policy, rng=1, delta=1e-6
            )
            network.attach_client("subscriber", "B1")
            subscriptions = [
                box(schema, (0, 40), (0, 80), sid=f"a-{policy.value}"),
                box(schema, (30, 80), (0, 80), sid=f"b-{policy.value}"),
                box(schema, (5, 70), (10, 60), sid=f"c-{policy.value}"),  # union-covered
                box(schema, (10, 20), (20, 30), sid=f"d-{policy.value}"),  # pairwise-covered
            ]
            for subscription in subscriptions:
                network.subscribe("subscriber", subscription)
            results[policy.value] = network.metrics.subscription_messages
        assert results["pairwise"] <= results["none"]
        assert results["group"] <= results["pairwise"]
        assert results["group"] < results["none"]

    def test_delivery_preserved_under_group_policy(self, schema):
        network = BrokerNetwork(line_topology(5), policy=CoveringPolicy.GROUP, rng=3)
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B5")
        network.subscribe("sub", box(schema, (0, 40), (0, 80), sid="a"))
        network.subscribe("sub", box(schema, (30, 80), (0, 80), sid="b"))
        network.subscribe("sub", box(schema, (5, 70), (10, 60), sid="c"))
        import numpy as np

        generator = np.random.default_rng(5)
        for index in range(30):
            publication = Publication(
                schema,
                [
                    float(generator.integers(0, 101)),
                    float(generator.integers(0, 101)),
                ],
                publication_id=f"p{index}",
            )
            network.publish("pub", publication)
        # The union-covered subscription c entered at the same broker as a
        # and b, so no notification can be lost in this configuration.
        assert network.metrics.missed_notifications == 0

    def test_routing_table_sizes_reported(self, schema):
        network = BrokerNetwork(line_topology(3), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        network.subscribe("sub", box(schema, (0, 10), (0, 10)))
        sizes = network.routing_table_sizes()
        assert sizes == {"B1": 1, "B2": 1, "B3": 1}
        assert network.total_routing_entries() == 3


class TestUnsubscription:
    def test_unsubscribe_removes_routes_everywhere(self, schema):
        network = BrokerNetwork(line_topology(4), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        subscription = box(schema, (0, 10), (0, 10), sid="gone")
        network.subscribe("sub", subscription)
        assert network.total_routing_entries() == 4
        network.unsubscribe("sub", "gone")
        assert network.total_routing_entries() == 0
        assert network.metrics.unsubscription_messages > 0


class TestForeignSchema:
    def test_rejected_subscription_is_not_recorded(self, schema):
        network = BrokerNetwork(line_topology(2), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        network.subscribe("sub", box(schema, (0, 10), (0, 10), sid="a2"))
        other = Schema.uniform_integer(3, 0, 100)
        foreign = Subscription(other, [0, 0, 0], [5, 5, 5], subscription_id="a3")
        with pytest.raises(ValidationError):
            network.subscribe("sub", foreign)
        assert "a3" not in network._all_subscriptions
        assert network.total_routing_entries() == 2


class TestMetricsSummary:
    def test_summary_keys(self, schema):
        network = BrokerNetwork(line_topology(3), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B3")
        network.subscribe("sub", box(schema, (0, 50), (0, 50)))
        network.publish(
            "pub", Publication.from_values(schema, {"x1": 10, "x2": 10})
        )
        summary = network.metrics.report()
        assert summary["notifications"] == 1
        assert summary["expected_notifications"] == 1
        assert summary["delivery_ratio"] == 1.0
        assert summary["subscription_messages"] == 2
        assert summary["publication_messages"] == 2
