"""Regression tests for the matcher's thresholded compaction.

Sustained deletion must not leave a :class:`~repro.core.arena.Matcher`
scanning tombstoned columns forever, but small matchers must also never
pay a compaction pass for ordinary churn.  These tests pin the trigger
threshold (at least ``_MIN_CAPACITY`` tombstones *and* tombstones >=
live columns), the work bound (columns moved <= columns dropped), and
that a compaction relocates only the columns it must: every live column
already inside the packed prefix keeps its exact position and bounds.
"""

import numpy as np

from repro.core.arena import _MIN_CAPACITY, Matcher
from repro.model import IntegerDomain, Schema, Subscription


def _schema(m: int = 4) -> Schema:
    return Schema(
        [(f"a{j}", IntegerDomain(0, 1_000)) for j in range(m)],
        name="compaction",
    )


def _subscription(schema: Schema, index: int) -> Subscription:
    low = float(index % 500)
    return Subscription(
        schema,
        lows=[low] * schema.m,
        highs=[low + 10.0] * schema.m,
        subscription_id=f"s{index:05d}",
    )


def _fill(matcher: Matcher, schema: Schema, count: int):
    subscriptions = [_subscription(schema, i) for i in range(count)]
    for subscription in subscriptions:
        matcher.add(subscription)
    return subscriptions


def _assert_column_holds(matcher: Matcher, subscription: Subscription) -> None:
    column = matcher._signed[:, matcher._rows[subscription.id]]
    m = subscription.m
    np.testing.assert_array_equal(column[:m], subscription.lows)
    np.testing.assert_array_equal(-column[m:], subscription.highs)


class TestCompactionThreshold:
    def test_small_churn_never_compacts(self):
        """Below _MIN_CAPACITY tombstones the columns churn for free."""
        schema = _schema()
        matcher = Matcher()
        subscriptions = _fill(matcher, schema, _MIN_CAPACITY)
        # Remove all but one: dead (7) > live (1) but dead < threshold.
        for subscription in subscriptions[1:]:
            matcher.remove(subscription.id)
        assert matcher.compactions == 0
        assert matcher._dead == _MIN_CAPACITY - 1
        # Adding never compacts: new columns append past the tombstones.
        for index in range(len(subscriptions) - 1):
            matcher.add(_subscription(schema, 1000 + index))
        assert matcher.compactions == 0
        assert len(matcher) == _MIN_CAPACITY

    def test_dead_majority_triggers_exactly_once(self):
        schema = _schema()
        matcher = Matcher()
        subscriptions = _fill(matcher, schema, 200)
        # Remove columns until the tombstones (>= 8) first reach the live
        # ones: the pass fires on that removal and clears every tombstone,
        # so the next removal cannot re-trigger.
        for subscription in subscriptions[:100]:
            matcher.remove(subscription.id)
        assert matcher.compactions == 1
        assert matcher._size == len(matcher) == 100
        matcher.remove(subscriptions[100].id)
        assert matcher.compactions == 1

    def test_moved_rows_bounded_by_dead_rows(self):
        schema = _schema()
        matcher = Matcher()
        subscriptions = _fill(matcher, schema, 300)
        removed = subscriptions[0:300:2]  # every other column -> 150 dead
        for subscription in removed:
            matcher.remove(subscription.id)
        assert matcher.compactions == 1
        # only survivors behind a tombstone move, never more than were dropped
        assert matcher.moved_rows <= len(removed)
        assert matcher._size == len(matcher) == 150


class TestCompactionCorrectness:
    def test_unmoved_rows_keep_identity_and_bounds(self):
        """Packed-prefix columns stay where they are.

        Removing exactly the tail half makes the pass fire (dead == live
        == 128) with every survivor already inside the packed prefix, so
        the compaction must relocate nothing and every column must keep
        its position and bounds.
        """
        schema = _schema()
        matcher = Matcher()
        subscriptions = _fill(matcher, schema, 256)
        survivors = subscriptions[:128]
        rows_before = {s.id: matcher._rows[s.id] for s in survivors}
        for subscription in subscriptions[128:]:
            matcher.remove(subscription.id)
        assert matcher.compactions == 1
        assert matcher.moved_rows == 0
        for subscription in survivors:
            assert matcher._rows[subscription.id] == rows_before[subscription.id]
            _assert_column_holds(matcher, subscription)

    def test_moved_rows_carry_their_bounds(self):
        """Killing the prefix forces relocation; bounds must follow."""
        schema = _schema()
        matcher = Matcher()
        subscriptions = _fill(matcher, schema, 256)
        # The pass fires at the 128th removal (dead == live) with every
        # tombstone below the live tail: all 128 survivors move down.
        for subscription in subscriptions[:128]:
            matcher.remove(subscription.id)
        survivors = subscriptions[128:]
        assert matcher.compactions == 1
        assert matcher.moved_rows == len(survivors)
        assert matcher._size == len(survivors)
        for subscription in survivors:
            assert matcher._rows[subscription.id] < len(survivors)
            _assert_column_holds(matcher, subscription)

    def test_add_after_compaction_appends_to_packed_tail(self):
        schema = _schema()
        matcher = Matcher()
        subscriptions = _fill(matcher, schema, 200)
        # Fires at the 100th removal; the pass leaves no tombstone, so the
        # next add lands right after the live prefix.
        for subscription in subscriptions[:100]:
            matcher.remove(subscription.id)
        assert matcher.compactions == 1
        packed_end = matcher._size
        assert packed_end == 100
        newcomer = _subscription(schema, 9_999)
        matcher.add(newcomer)
        assert matcher._rows[newcomer.id] == packed_end
        _assert_column_holds(matcher, newcomer)
        assert tuple(s.id for s in matcher.candidates()) == tuple(
            s.id for s in subscriptions[100:] + [newcomer]
        )
