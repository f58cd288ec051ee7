"""Unit tests for :mod:`repro.broker.broker` and the routing table."""

import numpy as np
import pytest

from repro.broker.broker import Broker
from repro.broker.messages import PublicationMessage, SubscriptionMessage
from repro.broker.routing import RouteEntry, RoutingTable, SourceKind
from repro.core.arena import CandidateSet
from repro.core.store import CoveringPolicyName
from repro.core.subsumption import SubsumptionChecker
from repro.model import Publication, Schema, Subscription
from repro.workloads.generators import random_publication, random_subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None, subscriber=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid, subscriber=subscriber
    )


class TestRoutingTable:
    def test_add_get_remove(self, schema):
        table = RoutingTable()
        entry = RouteEntry(
            box(schema, (0, 10), (0, 10), sid="s"),
            SourceKind.LOCAL,
            "alice",
            origin="B1",
        )
        assert table.add(entry)
        assert not table.add(entry)  # duplicates rejected
        assert "s" in table
        assert table.get("s").source_id == "alice"
        assert len(table) == 1
        assert table.remove("s") is entry
        assert table.remove("s") is None

    def test_matching_entries(self, schema):
        table = RoutingTable()
        table.add(
            RouteEntry(box(schema, (0, 10), (0, 10), sid="near"), SourceKind.LOCAL, "a", "B1")
        )
        table.add(
            RouteEntry(box(schema, (50, 60), (50, 60), sid="far"), SourceKind.NEIGHBOR, "B2", "B2")
        )
        publication = Publication.from_values(schema, {"x1": 5, "x2": 5})
        ((matched, _tests),) = table.matching_entries_batch([publication])
        assert [e.subscription.id for e in matched] == ["near"]
        assert len(table) == 2

    def test_matching_entries_follow_churn(self, schema):
        """Under adds, removals and re-adds (a re-added id goes to the end),
        lookups return the live entries holding the point, in table order,
        each charged one test per live entry."""
        rng = np.random.default_rng(8)
        table = RoutingTable()

        def entry(index, source):
            subscription = random_subscription(schema, rng).replace(
                subscription_id=f"s{index}"
            )
            return RouteEntry(subscription, SourceKind.NEIGHBOR, source, origin=source)

        for index in range(50):
            assert table.add(entry(index, "B2"))
        for index in range(0, 50, 3):
            assert table.remove(f"s{index}").source_id == "B2"
        for index in range(0, 50, 6):
            assert table.add(entry(index, "B3"))
        publications = [random_publication(schema, rng) for _ in range(30)]
        expected = [
            ([e for e in table if e.subscription.matches(p)], len(table))
            for p in publications
        ]
        assert table.matching_entries_batch(publications) == expected
        assert [table.matching_entries_batch([p])[0] for p in publications] == expected
        assert any(e.source_id == "B3" for matched, _ in expected for e in matched)


class TestBrokerSubscriptionHandling:
    def _local_subscription_message(self, broker_id, subscription):
        return SubscriptionMessage(
            sender=None, recipient=broker_id, subscription=subscription, origin=broker_id
        )

    def test_local_subscription_forwarded_to_all_neighbors(self, schema):
        broker = Broker("B1", neighbors=["B2", "B3"], policy=CoveringPolicyName.NONE)
        outgoing, decisions = broker.handle_subscription(
            self._local_subscription_message("B1", box(schema, (0, 10), (0, 10)))
        )
        assert len(decisions) == 2
        assert all(decision.forwarded for decision in decisions)
        assert {m.recipient for m in outgoing} == {"B2", "B3"}
        assert all(m.sender == "B1" for m in outgoing)
        assert broker.table_size == 1

    def test_remote_subscription_not_sent_back_to_sender(self, schema):
        broker = Broker("B1", neighbors=["B2", "B3"], policy=CoveringPolicyName.NONE)
        message = SubscriptionMessage(
            sender="B2",
            recipient="B1",
            subscription=box(schema, (0, 10), (0, 10)),
            origin="B9",
            hops=3,
        )
        outgoing, decisions = broker.handle_subscription(message)
        assert {m.recipient for m in outgoing} == {"B3"}
        assert {decision.neighbor for decision in decisions} == {"B3"}
        assert outgoing[0].hops == 4
        assert outgoing[0].origin == "B9"

    def test_duplicate_subscription_ignored(self, schema):
        broker = Broker("B1", neighbors=["B2"], policy=CoveringPolicyName.NONE)
        subscription = box(schema, (0, 10), (0, 10))
        broker.handle_subscription(self._local_subscription_message("B1", subscription))
        outgoing, decisions = broker.handle_subscription(
            self._local_subscription_message("B1", subscription)
        )
        assert outgoing == [] and decisions == []
        assert broker.table_size == 1

    def test_pairwise_covering_suppresses_forwarding(self, schema):
        broker = Broker("B1", neighbors=["B2"], policy=CoveringPolicyName.PAIRWISE)
        broker.handle_subscription(
            self._local_subscription_message("B1", box(schema, (0, 50), (0, 50)))
        )
        outgoing, decisions = broker.handle_subscription(
            self._local_subscription_message("B1", box(schema, (10, 20), (10, 20)))
        )
        assert len(decisions) == 1
        assert not decisions[0].forwarded
        assert outgoing == []
        # The covered subscription is still stored for local matching.
        assert broker.table_size == 2

    def test_covering_is_per_link(self, schema):
        """A subscription received from a neighbour does not suppress
        forwarding back toward directions that never saw the coverer."""
        broker = Broker("B4", neighbors=["B3", "B5"], policy=CoveringPolicyName.PAIRWISE)
        # s1 arrives from B3 and is forwarded to B5.
        broker.handle_subscription(
            SubscriptionMessage(
                sender="B3",
                recipient="B4",
                subscription=box(schema, (0, 60), (0, 60), sid="s1"),
                origin="B1",
            )
        )
        # s2 (covered by s1) arrives from B5: toward B3 nothing covers it yet
        # (s1 was never sent to B3), so it must be forwarded to B3 only.
        outgoing, decisions = broker.handle_subscription(
            SubscriptionMessage(
                sender="B5",
                recipient="B4",
                subscription=box(schema, (10, 20), (10, 20), sid="s2"),
                origin="B6",
            )
        )
        assert {m.recipient for m in outgoing} == {"B3"}
        by_neighbor = {decision.neighbor: decision for decision in decisions}
        assert by_neighbor["B3"].forwarded

    def test_group_covering_suppresses_union_covered(
        self, table3_subscription, table3_candidates
    ):
        broker = Broker(
            "B1",
            neighbors=["B2"],
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=1),
        )
        for candidate in table3_candidates:
            broker.handle_subscription(
                self._local_subscription_message("B1", candidate)
            )
        outgoing, decisions = broker.handle_subscription(
            self._local_subscription_message("B1", table3_subscription)
        )
        assert len(decisions) == 1
        assert not decisions[0].forwarded
        assert decisions[0].rspc_iterations > 0
        assert outgoing == []

    def test_unchanged_link_reuses_snapshot(self, schema, monkeypatch):
        """Same advertisement set -> same snapshot object; one appended
        advertisement -> the previous snapshot ``extended`` by a row."""
        extended = []
        extend = CandidateSet.extended

        def spy(snapshot, subscription):
            extended.append(subscription.id)
            return extend(snapshot, subscription)

        monkeypatch.setattr(CandidateSet, "extended", spy)
        broker = Broker("B1", neighbors=("N",), policy="group")
        link = broker.links["N"]
        link.add(box(schema, (0, 50), (0, 100), sid="left"))
        first = link.active_candidates()
        # a covered newcomer leaves the advertisements, and the snapshot, as
        # they are
        link.add(box(schema, (0, 10), (0, 10), sid="narrow"))
        assert link.active_candidates() is first

        link.add(box(schema, (60, 100), (0, 100), sid="right"))
        second = link.active_candidates()
        assert extended == ["left", "right"]
        assert tuple(s.id for s in second) == ("left", "right")
        assert tuple(s.id for s in first) == ("left",)
        assert link.active_candidates() is second


class TestBrokerPublicationHandling:
    def test_delivery_to_local_subscriber_and_reverse_path(self, schema):
        broker = Broker("B2", neighbors=["B1", "B3"], policy=CoveringPolicyName.NONE)
        # Subscription from a local client.
        broker.handle_subscription(
            SubscriptionMessage(
                sender=None,
                recipient="B2",
                subscription=box(schema, (0, 10), (0, 10), subscriber="alice"),
                origin="B2",
            )
        )
        # Subscription learnt from neighbour B3.
        broker.handle_subscription(
            SubscriptionMessage(
                sender="B3",
                recipient="B2",
                subscription=box(schema, (0, 20), (0, 20), sid="remote"),
                origin="B4",
            )
        )
        publication = Publication.from_values(schema, {"x1": 5, "x2": 5})
        message = PublicationMessage(
            sender="B1", recipient="B2", publication=publication, origin="B1"
        )
        (outgoing,) = broker.handle_publication_batch((message,))
        # Local delivery recorded, publication forwarded toward B3 only.
        assert len(broker.delivered) == 1
        assert broker.delivered[0].subscriber == "alice"
        assert {m.recipient for m in outgoing} == {"B3"}

    def test_duplicate_publication_ignored(self, schema):
        broker = Broker("B1", neighbors=["B2"], policy=CoveringPolicyName.NONE)
        broker.handle_subscription(
            SubscriptionMessage(
                sender="B2",
                recipient="B1",
                subscription=box(schema, (0, 20), (0, 20)),
                origin="B2",
            )
        )
        publication = Publication.from_values(schema, {"x1": 5, "x2": 5})
        message = PublicationMessage(
            sender=None, recipient="B1", publication=publication, origin="B1"
        )
        (first,) = broker.handle_publication_batch((message,))
        (second,) = broker.handle_publication_batch((message,))
        assert len(first) == 1
        assert second == []

    def test_publication_not_returned_to_sender(self, schema):
        broker = Broker("B1", neighbors=["B2"], policy=CoveringPolicyName.NONE)
        broker.handle_subscription(
            SubscriptionMessage(
                sender="B2",
                recipient="B1",
                subscription=box(schema, (0, 20), (0, 20)),
                origin="B2",
            )
        )
        publication = Publication.from_values(schema, {"x1": 5, "x2": 5})
        message = PublicationMessage(
            sender="B2", recipient="B1", publication=publication, origin="B2"
        )
        (outgoing,) = broker.handle_publication_batch((message,))
        assert outgoing == []

    def test_connect_and_attach(self):
        broker = Broker("B1")
        broker.connect("B2")
        broker.connect("B2")
        broker.connect("B1")
        assert list(broker.links) == ["B2"]
        broker.attach_subscriber("alice")
        assert "alice" in broker.local_subscribers
