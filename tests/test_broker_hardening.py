"""Tests for the broker/network hardening fixes.

* the per-broker publication dedup memory is bounded (no unbounded growth
  over long publication streams);
* the network's global delivery oracle is keyed by subscription id and
  matches through a matcher backend (no O(n) rebuild per unsubscription).
"""

import pytest

from repro.broker import Broker, BrokerNetwork, CoveringPolicy, line_topology
from repro.broker.messages import PublicationMessage, SubscriptionMessage
from repro.model import Publication, Schema, Subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def whole_space(schema, sid="all"):
    return Subscription.whole_space(schema, subscription_id=sid)


class TestDedupWindowBound:
    def test_seen_set_is_bounded_over_a_long_stream(self, schema):
        broker = Broker("B1", dedup_window=16, policy=CoveringPolicy.NONE)
        for index in range(500):
            message = PublicationMessage(
                sender=None,
                recipient="B1",
                publication=Publication.from_values(
                    schema, {"x1": 1, "x2": 1}, publication_id=f"p{index}"
                ),
            )
            broker.handle_publication_batch((message,))
            assert len(broker._seen_publications) <= 16
        assert len(broker._seen_publications) == 16

    def test_duplicates_inside_the_window_are_suppressed(self, schema):
        broker = Broker("B1", dedup_window=16, policy=CoveringPolicy.NONE)
        broker.attach_subscriber("sub")
        broker.handle_subscription(
            SubscriptionMessage(
                sender=None,
                recipient="B1",
                subscription=whole_space(schema).replace(subscriber="sub"),
                origin="B1",
            )
        )
        publication = Publication.from_values(
            schema, {"x1": 1, "x2": 1}, publication_id="dup"
        )
        message = PublicationMessage(
            sender=None, recipient="B1", publication=publication
        )
        broker.handle_publication_batch((message,))
        broker.handle_publication_batch((message,))
        assert len(broker.delivered) == 1

    def test_network_threads_the_window_through(self, schema):
        network = BrokerNetwork(
            line_topology(2), policy=CoveringPolicy.NONE, dedup_window=8
        )
        assert all(
            broker.dedup_window == 8 for broker in network.brokers.values()
        )
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B2")
        network.subscribe("sub", whole_space(schema))
        for index in range(100):
            network.publish(
                "pub",
                Publication.from_values(
                    schema, {"x1": 1, "x2": 1}, publication_id=f"p{index}"
                ),
            )
        assert network.metrics.missed == []
        for broker in network.brokers.values():
            assert len(broker._seen_publications) <= 8

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Broker("B1", dedup_window=0)

    def test_burst_larger_than_window_safe_on_cyclic_topology(self, schema):
        """publish_many chunks its drains at the dedup window, so even a
        burst far larger than the window cannot evict an id while its
        duplicate is still in flight around a cycle (no double delivery)."""
        from repro.broker import grid_topology

        network = BrokerNetwork(
            grid_topology(2, 2), policy=CoveringPolicy.NONE, dedup_window=3
        )
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B4")
        network.subscribe("sub", whole_space(schema))
        burst = [
            Publication.from_values(
                schema, {"x1": 1, "x2": 1}, publication_id=f"p{index}"
            )
            for index in range(20)
        ]
        delivered = network.publish_many([("pub", p) for p in burst])
        assert len(delivered) == 20  # exactly once each, no duplicates
        assert network.metrics.notifications == 20
        assert network.metrics.expected_notifications == 20
        assert network.metrics.missed == []
        assert network.metrics.report()["delivery_ratio"] == 1.0


class TestOracleById:
    def _network(self, label="linear"):
        network = BrokerNetwork(
            line_topology(3), policy=CoveringPolicy.NONE, matcher_backend=label
        )
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B3")
        return network

    def box(self, schema, lo, hi, sid):
        return Subscription.from_constraints(
            schema, {"x1": (lo, hi), "x2": (lo, hi)}, subscription_id=sid
        )

    def test_oracle_tracks_subscribe_and_unsubscribe(self, schema):
        network = self._network()
        for index in range(10):
            network.subscribe("sub", self.box(schema, 0, 50, f"s{index}"))
        assert len(network._all_subscriptions) == 10
        assert len(network._oracle) == 10
        for index in range(0, 10, 2):
            network.unsubscribe("sub", f"s{index}")
        assert sorted(network._all_subscriptions) == [
            f"s{index}" for index in range(1, 10, 2)
        ]
        assert len(network._oracle) == 5

    def test_unsubscribing_unknown_id_is_a_noop(self, schema):
        network = self._network()
        network.subscribe("sub", self.box(schema, 0, 50, "known"))
        network.unsubscribe("sub", "never-existed")
        assert len(network._all_subscriptions) == 1

    def test_duplicate_subscription_id_kept_once(self, schema):
        network = self._network()
        subscription = self.box(schema, 0, 50, "dup")
        network.subscribe("sub", subscription)
        network.subscribe("sub", subscription)
        assert len(network._all_subscriptions) == 1
        delivered = network.publish(
            "pub", Publication.from_values(schema, {"x1": 10, "x2": 10})
        )
        assert len(delivered) == 1
        assert network.metrics.missed == []

    @staticmethod
    def _pair(policy):
        network = BrokerNetwork(line_topology(2), policy=policy, rng=0)
        network.attach_client("a", "B1")
        network.attach_client("b", "B2")
        return network

    @staticmethod
    def _x1(schema, lo, hi):
        return Subscription.from_constraints(
            schema, {"x1": (lo, hi)}, subscription_id="s1"
        )

    @pytest.mark.parametrize("policy", ["none", "pairwise", "group"])
    @pytest.mark.parametrize(
        "client, bounds",
        [("b", (5, 9)), ("b", (0, 4)), ("a", (5, 9))],
        ids=["other-client-other-box", "other-client", "other-box"],
    )
    def test_live_id_reused_for_another_subscription_rejected(
        self, schema, policy, client, bounds
    ):
        """Brokers keep the first ``s1``; accepting the second would drop
        it silently and leave the oracle unaware of the loss."""
        network = self._pair(policy)
        first = self._x1(schema, 0, 4)
        network.subscribe("a", first)
        before = network.metrics.report()
        with pytest.raises(ValueError, match="'s1' is already registered"):
            network.subscribe(client, self._x1(schema, *bounds))
        assert network.metrics.report() == before
        registered, owner, broker_id = network._all_subscriptions["s1"]
        assert (owner, broker_id) == ("a", "B1") and registered.same_box(first)
        assert len(network._oracle) == 1
        delivered = network.publish(
            "b", Publication.from_values(schema, {"x1": 2, "x2": 7})
        )
        assert [(r.subscriber, r.subscription_id) for r in delivered] == [("a", "s1")]
        assert network.metrics.missed == []

    # the labels still accepted by the network select nothing
    @pytest.mark.parametrize("label", ["linear", "counting", "selectivity"])
    def test_expected_notifications_follow_unsubscription(self, schema, label):
        network = self._network(label)
        bounds = [(0, 20), (10, 60), (40, 90), (70, 100)]
        for index, (lo, hi) in enumerate(bounds):
            network.subscribe("sub", self.box(schema, lo, hi, f"s{index}"))
        network.unsubscribe("sub", "s1")
        publication = Publication.from_values(schema, {"x1": 15, "x2": 15})
        expected = network._expected_notifications([publication])
        # Only s0 (0-20) still matches; s1 (10-60) unsubscribed.
        assert [record.subscription_id for record in expected] == ["s0"]
        delivered = network.publish("pub", publication)
        assert [record.subscription_id for record in delivered] == ["s0"]
        assert network.metrics.missed == []

    def test_storm_keeps_oracle_and_delivery_consistent(self, schema):
        network = self._network()
        for index in range(30):
            network.subscribe("sub", self.box(schema, index, index + 40, f"s{index}"))
        for index in range(0, 30, 3):
            network.unsubscribe("sub", f"s{index}")
        for value in (5, 25, 45, 65, 85):
            network.publish(
                "pub",
                Publication.from_values(
                    schema, {"x1": value, "x2": value}, publication_id=f"p{value}"
                ),
            )
        assert network.metrics.missed == []
        assert network.metrics.report()["delivery_ratio"] == 1.0
