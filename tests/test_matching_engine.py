"""Unit tests for :mod:`repro.matching.engine` (Algorithm 5)."""

import numpy as np
import pytest

from repro.core.store import CoveringPolicyName
from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.model import Publication, Schema, Subscription
from repro.model.errors import ValidationError
from repro.workloads.generators import random_publication, random_subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None, subscriber=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid, subscriber=subscriber
    )


class TestSubscribeWorkflow:
    def test_group_policy_suppresses_union_covered(
        self, table3_subscription, table3_candidates
    ):
        engine = MatchingEngine(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=0),
        )
        engine.subscribe_all(table3_candidates)
        decision = engine.subscribe(table3_subscription)
        assert not decision.forwarded
        assert len(engine.active_subscriptions) == 2
        assert len(engine.covered_subscriptions) == 1
        assert len(engine) == 3

    def test_unsubscribe_promotes_orphans(self, schema):
        engine = MatchingEngine(policy=CoveringPolicyName.PAIRWISE)
        engine.subscribe(box(schema, (0, 50), (0, 50), sid="big", subscriber="bob"))
        engine.subscribe(box(schema, (10, 20), (10, 20), sid="small", subscriber="amy"))
        promoted = engine.unsubscribe("big")
        assert [s.id for s in promoted] == ["small"]
        assert [s.id for s in engine.active_subscriptions] == ["small"]


class TestRejectedRequestsTouchNothing:
    def test_foreign_schema_rejected_before_any_state_changes(self, schema):
        engine = MatchingEngine(policy="none")
        engine.subscribe(box(schema, (0, 10), (0, 10), sid="a2"))
        other = Schema.uniform_integer(3, 0, 100)
        with pytest.raises(ValidationError):
            engine.subscribe(
                Subscription(other, [0, 0, 0], [5, 5, 5], subscription_id="a3")
            )
        assert len(engine) == 1
        assert "a3" not in engine.store
        assert engine.unsubscribe("a3") == ()

    @pytest.fixture
    def merged(self, schema):
        engine = MatchingEngine(policy="merging", merge_budget=1.0)
        engine.subscribe(box(schema, (0, 10), (0, 10), sid="a", subscriber="A"))
        engine.subscribe(box(schema, (10, 20), (0, 10), sid="b", subscriber="B"))
        assert [s.id for s in engine.active_subscriptions] == ["a|b"]
        return engine

    def _state(self, engine):
        return (
            engine.active_subscriptions,
            engine.covered_subscriptions,
            dict(engine.store.stats),
            dict(engine.store.cover_links),
        )

    def test_unsubscribing_a_merged_box_id_touches_nothing(self, merged):
        before = self._state(merged)
        assert merged.unsubscribe("a|b") == ()
        assert self._state(merged) == before

    def test_subscribing_a_merged_box_id_is_rejected(self, merged, schema):
        before = self._state(merged)
        with pytest.raises(ValueError, match="already registered"):
            merged.subscribe(box(schema, (50, 60), (50, 60), sid="a|b"))
        assert self._state(merged) == before
        merged.unsubscribe("a")
        merged.unsubscribe("b")
        assert len(merged) == 0


class TestAlgorithm5:
    @pytest.fixture
    def engine(self, schema):
        engine = MatchingEngine(policy=CoveringPolicyName.PAIRWISE)
        engine.subscribe(box(schema, (0, 50), (0, 50), sid="big", subscriber="bob"))
        engine.subscribe(
            box(schema, (10, 20), (10, 20), sid="small", subscriber="amy")
        )
        engine.subscribe(
            box(schema, (60, 80), (60, 80), sid="corner", subscriber="cat")
        )
        return engine

    def test_match_inside_covered_subscription(self, engine, schema):
        result = engine.match(Publication.from_values(schema, {"x1": 15, "x2": 15}))
        assert set(result.matched_ids) == {"big", "small"}
        assert set(result.subscribers) == {"bob", "amy"}
        assert result.active_tests == 2  # big + corner
        assert result.covered_tests == 1  # small, behind the gate

    def test_no_active_match_skips_covered_set(self, engine, schema):
        result = engine.match(Publication.from_values(schema, {"x1": 55, "x2": 55}))
        assert not result
        assert result.covered_tests == 0
        assert result.total_tests == result.active_tests

    def test_match_only_active(self, engine, schema):
        result = engine.match(Publication.from_values(schema, {"x1": 70, "x2": 70}))
        assert set(result.matched_ids) == {"corner"}
        assert result.subscribers == ("cat",)

    def test_stats_accumulate(self, engine, schema):
        engine.match(Publication.from_values(schema, {"x1": 15, "x2": 15}))
        engine.match(Publication.from_values(schema, {"x1": 99, "x2": 99}))
        assert engine.stats["publications"] == 2
        assert engine.stats["notifications"] >= 2
        assert engine.stats["active_tests"] > 0

    def test_match_all(self, engine, schema):
        results = engine.match_all(
            [
                Publication.from_values(schema, {"x1": 15, "x2": 15}),
                Publication.from_values(schema, {"x1": 70, "x2": 70}),
            ]
        )
        assert len(results) == 2


class TestEquivalenceAcrossConfigurations:
    """All engine configurations must notify exactly the same subscribers."""

    @pytest.mark.parametrize("seed", range(3))
    def test_same_notifications_for_all_policies(self, seed):
        schema = Schema.uniform_integer(3, 0, 200)
        rng = np.random.default_rng(seed)
        subscriptions = []
        for index in range(40):
            subscription = random_subscription(schema, rng, width_fraction=(0.2, 0.6))
            subscriptions.append(
                subscription.replace(
                    subscription_id=f"s{index}", subscriber=f"client-{index % 7}"
                )
            )
        publications = [random_publication(schema, rng) for _ in range(30)]

        engines = {
            "flood": MatchingEngine(policy=CoveringPolicyName.NONE),
            "pairwise": MatchingEngine(policy=CoveringPolicyName.PAIRWISE),
            "group": MatchingEngine(
                policy=CoveringPolicyName.GROUP,
                checker=SubsumptionChecker(delta=1e-9, max_iterations=2000, rng=seed),
            ),
        }
        for engine in engines.values():
            for subscription in subscriptions:
                engine.subscribe(
                    subscription.replace(subscription_id=f"{subscription.id}")
                )

        total_expected = 0
        group_missed = 0
        for publication in publications:
            expected = {
                s.subscriber for s in subscriptions if s.matches(publication)
            }
            total_expected += len(expected)
            for name, engine in engines.items():
                result = engine.match(publication)
                delivered = set(result.subscribers)
                if name == "group":
                    # The probabilistic policy may lose notifications for
                    # erroneously covered subscriptions, but never invents
                    # spurious ones.
                    assert delivered <= expected, name
                    group_missed += len(expected - delivered)
                else:
                    assert delivered == expected, name
        if total_expected:
            assert group_missed / total_expected <= 0.05
