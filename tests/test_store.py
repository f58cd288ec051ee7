"""Unit tests for :mod:`repro.core.store` (active/covered set maintenance)."""

import pytest

from repro.core.arena import CandidateSet
from repro.core.store import CoveringPolicyName, SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.model import Schema, Subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None, subscriber=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid, subscriber=subscriber
    )


class TestNonePolicy:
    def test_everything_stays_active(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.NONE)
        store.add(box(schema, (0, 50), (0, 50)))
        store.add(box(schema, (10, 20), (10, 20)))
        assert len(store.active_pool) == 2
        assert store.stats["forwarded"] == 2
        assert store.stats["suppressed"] == 0


class TestPairwisePolicy:
    def test_covered_newcomer_suppressed(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        store.add(box(schema, (0, 50), (0, 50), sid="big"))
        decision = store.add(box(schema, (10, 20), (10, 20), sid="small"))
        assert not decision.forwarded
        assert decision.covered_by == ("big",)
        assert len(store.active_pool) == 1
        assert store.cover_links["small"] == ("big",)

    def test_union_cover_not_detected_by_pairwise(
        self, schema_2d, table3_subscription, table3_candidates
    ):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        for candidate in table3_candidates:
            store.add(candidate)
        decision = store.add(table3_subscription)
        assert decision.forwarded  # the baseline cannot see the union cover
        assert len(store.active_pool) == 3

    def test_newcomer_never_demotes(self, schema):
        """A covering newcomer leaves what is advertised alone: a broker
        link could not un-advertise it without extra retractions."""
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        store.add(box(schema, (10, 20), (10, 20), sid="small"))
        decision = store.add(box(schema, (0, 50), (0, 50), sid="big"))
        assert decision.forwarded
        assert [s.id for s in store.active] == ["small", "big"]
        assert store.cover_links == {}
        assert "demoted" not in store.stats

    def test_active_and_covered_views_partition_the_store(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        store.add(box(schema, (0, 50), (0, 50), sid="big"))
        store.add(box(schema, (10, 20), (10, 20), sid="small"))
        store.add(box(schema, (60, 80), (60, 80), sid="far"))
        assert [s.id for s in store.active] == ["big", "far"]
        assert [s.id for s in store.covered] == ["small"]
        assert len(store.active_pool) == 2
        assert store.total_count == 3

    def test_incomparable_subscriptions_all_stay_active(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        for low in (0, 30, 60):
            decision = store.add(box(schema, (low, low + 20), (low, low + 20)))
            assert decision.forwarded
        assert len(store.active_pool) == 3
        assert store.covered == ()
        assert store.stats["suppressed"] == 0


class TestGroupPolicy:
    def test_union_cover_detected(self, table3_subscription, table3_candidates):
        store = SubscriptionStore(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=3),
        )
        for candidate in table3_candidates:
            store.add(candidate)
        decision = store.add(table3_subscription)
        assert not decision.forwarded
        assert set(decision.covered_by) == {"s1", "s2"}
        assert len(store.active_pool) == 2
        assert decision.result is not None
        assert decision.result.covered

    def test_single_coverer_recorded_when_pairwise(self, schema):
        store = SubscriptionStore(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=3),
        )
        store.add(box(schema, (0, 50), (0, 50), sid="big"))
        decision = store.add(box(schema, (10, 20), (10, 20), sid="small"))
        assert not decision.forwarded
        assert decision.covered_by == ("big",)

    def test_stats_track_rspc_iterations(
        self, table3_subscription, table3_candidates
    ):
        store = SubscriptionStore(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=3),
        )
        for candidate in table3_candidates:
            store.add(candidate)
        store.add(table3_subscription)
        assert store.stats["rspc_iterations"] > 0
        assert store.stats["suppressed"] == 1


class TestRemoval:
    def test_remove_covered_subscription(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        store.add(box(schema, (0, 50), (0, 50), sid="big"))
        store.add(box(schema, (10, 20), (10, 20), sid="small"))
        promoted = store.remove("small").promoted
        assert promoted == ()
        assert store.total_count == 1
        assert "small" not in store

    def test_remove_active_promotes_orphans(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        store.add(box(schema, (0, 50), (0, 50), sid="big"))
        store.add(box(schema, (10, 20), (10, 20), sid="small"))
        promoted = store.remove("big").promoted
        assert [s.id for s in promoted] == ["small"]
        assert len(store.active_pool) == 1
        assert "small" in store
        assert store.stats["promoted"] == 1

    def test_remove_active_keeps_still_covered_orphans_suppressed(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.PAIRWISE)
        # Two incomparable coverers that both cover "small".
        store.add(box(schema, (0, 50), (0, 100), sid="tall"))
        store.add(box(schema, (0, 100), (0, 50), sid="wide"))
        store.add(box(schema, (10, 20), (10, 20), sid="small"))
        coverer = store.cover_links["small"][0]
        promoted = store.remove(coverer).promoted
        # The other large subscription still covers "small".
        assert promoted == ()
        assert "small" in store
        assert len(store.active_pool) == 1

    def test_remove_unknown_id_is_noop(self, schema):
        store = SubscriptionStore()
        assert store.remove("ghost").promoted == ()

    def test_contains(self, schema):
        store = SubscriptionStore(policy=CoveringPolicyName.NONE)
        store.add(box(schema, (0, 10), (0, 10), sid="a"))
        assert "a" in store
        assert "zzz" not in store
        assert 42 not in store


class TestDuplicateIdentifiers:
    """An identifier the store holds is rejected before any state changes."""

    @pytest.mark.parametrize("policy", ["none", "pairwise", "group", "merging", "hybrid"])
    def test_a_held_id_is_rejected(self, policy):
        schema = Schema.uniform_integer(2, 0, 7)
        store = SubscriptionStore(policy=policy, checker=SubsumptionChecker(rng=0))
        first = Subscription(schema, [0, 0], [5, 5], subscription_id="a")
        store.add(first)
        snapshot = store.active_candidates()
        stats = dict(store.stats)
        with pytest.raises(ValueError, match="already registered"):
            store.add(Subscription(schema, [3, 3], [7, 7], subscription_id="a"))
        assert (store.active, store.covered) == ((first,), ())
        assert store.stats == stats
        assert store.active_candidates() is snapshot
        assert snapshot.raw.tolist() == CandidateSet([first]).raw.tolist()
        store.remove("a")
        assert store.total_count == 0
