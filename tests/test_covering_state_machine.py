"""Stateful Hypothesis machines over the one covering-state machine.

:class:`~repro.core.store.SubscriptionStore` holds what is advertised, what
is withheld and on whose account, and what a merged box stands for — for a
matching engine and for every broker link alike.  Two machines drive it
with arbitrary subscribe / unsubscribe / publish interleavings on a small
discrete schema and check, after every step:

* every withheld entry's coverers are advertised;
* every member's box is advertised, and every advertised box has a member;
* the Algorithm 5 gate: every tick matched by a stored subscription is
  matched by an advertised one (by enumerating the ticks);
* the engine's two matchers hold exactly the store's two pools, in order;
* on a 3-broker line, nothing is missed under ``none`` and ``pairwise``,
  and under ``merging`` every delivery is owed or a counted false positive.

``group`` is left out on purpose: its covers are probabilistic, so the
gate holds only within its error bound.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.broker import BrokerNetwork, line_topology
from repro.matching.engine import MatchingEngine
from repro.model import Publication, Schema, Subscription

SCHEMA = Schema.uniform_integer(2, 0, 7)
TICKS = np.array(list(itertools.product(range(8), repeat=2)), dtype=float)
POLICIES = ("none", "pairwise", "merging")
MERGE_BUDGET = 0.5
SETTINGS = settings(
    max_examples=30,
    stateful_step_count=40,
    deadline=None,
    derandomize=True,
)

lows = st.tuples(st.integers(0, 7), st.integers(0, 7))
widths = st.tuples(st.integers(0, 4), st.integers(0, 4))
ticks = st.tuples(st.integers(0, 7), st.integers(0, 7))


def _box(low, width, sid, subscriber=None):
    high = [min(a + w, 7) for a, w in zip(low, width)]
    return Subscription(
        SCHEMA, list(low), high, subscription_id=sid, subscriber=subscriber
    )


def _ticks_held(subscriptions):
    """Boolean mask of the ticks some of ``subscriptions`` hold."""
    held = np.zeros(len(TICKS), dtype=bool)
    for s in subscriptions:
        held |= np.all((s.lows <= TICKS) & (TICKS <= s.highs), axis=1)
    return held


def check_store(store):
    """The store invariants every owner relies on."""
    advertised = {s.id for s in store.active}
    covered = {s.id for s in store.covered}
    assert not advertised & covered
    for sid, coverers in store.cover_links.items():
        assert sid in covered
        assert set(coverers) <= advertised, (sid, coverers)
    members = set()
    for box_id, ids in store.members.items():
        assert box_id in advertised
        assert ids, box_id
        assert ids <= covered
        assert not members & ids
        members |= ids
    # a covered entry is withheld or a member, never both
    assert members.isdisjoint(store.cover_links)
    assert members | set(store.cover_links) == covered
    stored = [s for s in store.active + store.covered if s.id not in store.members]
    assert not np.any(_ticks_held(stored) & ~_ticks_held(store.active))
    assert len(store.arena) == store.active_count


def _coverers(stores, live):
    """Live ids whose departure re-decides something in one of ``stores``:
    a coverer named by a withheld entry, or a member of a box some entry
    is withheld on."""
    found = set()
    for store in stores:
        named = {c for coverers in store.cover_links.values() for c in coverers}
        found |= named
        for box_id in named & set(store.members):
            found |= store.members[box_id]
    return sorted(found & set(live))


class EngineMachine(RuleBasedStateMachine):
    """A matching engine — one store plus its two matchers."""

    policy = "none"

    def __init__(self):
        super().__init__()
        self.engine = MatchingEngine(policy=self.policy, merge_budget=MERGE_BUDGET)
        self.live = {}
        self.issued = 0

    @rule(low=lows, width=widths)
    def subscribe(self, low, width):
        sid = f"s{self.issued}"
        self.issued += 1
        subscription = _box(low, width, sid, subscriber=f"c{sid}")
        self.engine.subscribe(subscription)
        self.live[sid] = subscription

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def unsubscribe(self, data):
        sid = data.draw(st.sampled_from(sorted(self.live)))
        self.engine.unsubscribe(sid)
        del self.live[sid]

    @precondition(lambda self: _coverers([self.engine.store], self.live))
    @rule(data=st.data())
    def unsubscribe_a_coverer(self, data):
        sid = data.draw(st.sampled_from(_coverers([self.engine.store], self.live)))
        self.engine.unsubscribe(sid)
        del self.live[sid]

    @rule()
    def unsubscribe_a_merged_box(self):
        before = (self.engine.active_subscriptions, self.engine.covered_subscriptions)
        for box_id in list(self.engine.store.members):
            assert self.engine.unsubscribe(box_id) == ()
        after = (self.engine.active_subscriptions, self.engine.covered_subscriptions)
        assert after == before

    @rule(tick=ticks)
    def publish(self, tick):
        publication = Publication(SCHEMA, list(tick))
        expected = {s.subscriber for s in self.live.values() if s.matches(publication)}
        assert set(self.engine.match(publication).subscribers) == expected

    @invariant()
    def store_is_consistent(self):
        store = self.engine.store
        check_store(store)
        registered = {s.id for s in store.active + store.covered}
        assert registered - set(store.members) == set(self.live)

    @invariant()
    def matchers_mirror_the_pools(self):
        store = self.engine.store
        assert list(self.engine._active._rows) == [s.id for s in store.active]
        assert list(self.engine._covered._rows) == [s.id for s in store.covered]


class LineMachine(RuleBasedStateMachine):
    """A 3-broker line: every link of every broker is a store."""

    policy = "none"

    def __init__(self):
        super().__init__()
        self.network = BrokerNetwork(
            line_topology(3), policy=self.policy, rng=0, merge_budget=MERGE_BUDGET
        )
        self.clients = []
        for broker_id in self.network.broker_ids:
            self.clients.append(f"at-{broker_id}")
            self.network.attach_client(self.clients[-1], broker_id)
        self.live = {}
        self.issued = 0

    @rule(low=lows, width=widths, where=st.integers(0, 2))
    def subscribe(self, low, width, where):
        sid = f"s{self.issued}"
        self.issued += 1
        self.network.subscribe(self.clients[where], _box(low, width, sid))
        self.live[sid] = self.clients[where]

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def unsubscribe(self, data):
        sid = data.draw(st.sampled_from(sorted(self.live)))
        self.network.unsubscribe(self.live.pop(sid), sid)

    def _links(self):
        return [
            link
            for broker in self.network.brokers.values()
            for link in broker.links.values()
        ]

    @precondition(lambda self: _coverers(self._links(), self.live))
    @rule(data=st.data())
    def unsubscribe_a_coverer(self, data):
        sid = data.draw(st.sampled_from(_coverers(self._links(), self.live)))
        self.network.unsubscribe(self.live.pop(sid), sid)

    @rule(tick=ticks, where=st.integers(0, 2))
    def publish(self, tick, where):
        self.network.publish(self.clients[where], Publication(SCHEMA, list(tick)))

    @invariant()
    def links_are_consistent(self):
        for link in self._links():
            check_store(link)

    @invariant()
    def nothing_owed_is_missed(self):
        metrics = self.network.metrics
        assert metrics.missed_notifications == 0
        assert (
            metrics.notifications
            == metrics.expected_notifications + metrics.false_positive_notifications
        )
        if self.policy != "merging":
            assert metrics.false_positive_notifications == 0


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("machine", [EngineMachine, LineMachine])
def test_covering_state_machine(machine, policy):
    run_state_machine_as_test(
        type(f"{machine.__name__}_{policy}", (machine,), {"policy": policy}),
        settings=SETTINGS,
    )
