"""Tests of the pluggable reduction-strategy layer.

Covers the registry seam itself, the two new strategies (merging and
hybrid), the MCS-minimized suppression dependencies of the group policy,
and the end-to-end guarantees the refactor must preserve:

* the covering strategies (``none``/``pairwise``/``group``) deliver
  identical notification sets on the canonical churn/burst scenarios
  (no behaviour change from the refactor);
* the merging strategies never *miss* a notification — their extra
  deliveries are exactly the ones counted as false positives;
* strategy selection threads through specs, traces and replays.
"""

import dataclasses

import pytest

from repro.broker import BrokerNetwork, line_topology
from repro.broker.broker import Broker
from repro.broker.messages import SubscriptionMessage, UnsubscriptionMessage
from repro.core.policies import (
    DEFAULT_MERGE_BUDGET,
    GroupStrategy,
    HybridStrategy,
    MergingStrategy,
    NoneStrategy,
    PairwiseStrategy,
    ReductionPolicyName,
    ReductionStrategy,
    STRATEGY_NAMES,
    make_strategy,
    register_strategy,
    strategy_names,
)
from repro.core.store import CoveringPolicyName, SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.model import Publication, Schema, Subscription
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.registry import REGISTRY
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None, subscriber=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid, subscriber=subscriber
    )


def point(schema, x1, x2, pid=None):
    return Publication.from_values(
        schema, {"x1": x1, "x2": x2}, publication_id=pid
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestStrategyRegistry:
    def test_builtin_names(self):
        assert STRATEGY_NAMES == (
            "none", "pairwise", "group", "merging", "hybrid"
        )
        assert set(STRATEGY_NAMES) <= set(strategy_names())

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("none", NoneStrategy),
            ("pairwise", PairwiseStrategy),
            ("group", GroupStrategy),
            ("merging", MergingStrategy),
            ("hybrid", HybridStrategy),
        ],
    )
    def test_make_strategy_by_name_and_enum(self, name, cls):
        assert isinstance(make_strategy(name), cls)
        assert isinstance(make_strategy(ReductionPolicyName(name)), cls)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown reduction strategy"):
            make_strategy("bogus")

    def test_instance_passthrough(self):
        strategy = MergingStrategy(merge_budget=0.1)
        assert make_strategy(strategy) is strategy

    def test_custom_strategy_registration(self, schema):
        class Flooding(NoneStrategy):
            pass

        @register_strategy("always-forward-test")
        def _factory(checker=None, merge_budget=DEFAULT_MERGE_BUDGET):
            return Flooding()

        try:
            assert "always-forward-test" in strategy_names()
            store = SubscriptionStore(policy="always-forward-test")
            store.add(box(schema, (0, 10), (0, 10), sid="a"))
            store.add(box(schema, (0, 10), (0, 10), sid="b"))
            assert store.active_count == 2
            # The registered name flows through every layer: network,
            # spec round-trip and the runner.
            network = BrokerNetwork(
                line_topology(2), policy="always-forward-test", rng=0
            )
            network.attach_client("c", "B1")
            network.subscribe("c", box(schema, (0, 10), (0, 10), sid="n1"))
            spec = dataclasses.replace(
                REGISTRY.get("t0-smoke"), policy="always-forward-test"
            )
            assert spec.to_dict()["policy"] == "always-forward-test"
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec
            report = ScenarioRunner(spec, seed=1).run()
            assert report.policy == "always-forward-test"
            assert report.totals["suppressed_subscriptions"] == 0
        finally:
            from repro.core import policies

            policies._STRATEGY_FACTORIES.pop("always-forward-test", None)

    def test_checker_shared_with_strategy(self):
        checker = SubsumptionChecker(rng=1)
        strategy = make_strategy("group", checker=checker)
        assert strategy.checker is checker

    def test_negative_merge_budget_rejected(self):
        with pytest.raises(ValueError):
            MergingStrategy(merge_budget=-0.1)


# ----------------------------------------------------------------------
# Merging / hybrid decisions
# ----------------------------------------------------------------------
class TestMergingStrategy:
    def test_covered_newcomer_is_suppressed_not_merged(self, schema):
        strategy = MergingStrategy(merge_budget=0.5)
        big = box(schema, (0, 50), (0, 50), sid="big")
        decision = strategy.decide(
            box(schema, (10, 20), (10, 20), sid="small"), [big]
        )
        assert decision.suppressed
        assert decision.covered_by == ("big",)
        assert decision.merged is None

    def test_adjacent_boxes_merge_within_budget(self, schema):
        strategy = MergingStrategy(merge_budget=0.0)
        left = box(schema, (0, 10), (0, 10), sid="left")
        decision = strategy.decide(
            box(schema, (10, 20), (0, 10), sid="right"), [left]
        )
        assert decision.merge_performed
        assert decision.replaced == ("left",)
        assert decision.false_volume == 0.0
        assert decision.merged.covers(left)

    def test_expensive_merge_is_forwarded(self, schema):
        strategy = MergingStrategy(merge_budget=0.1)
        far = box(schema, (0, 5), (0, 5), sid="far")
        decision = strategy.decide(
            box(schema, (80, 90), (80, 90), sid="newcomer"), [far]
        )
        assert decision.forwarded
        assert decision.merged is None

    def test_cheapest_partner_wins(self, schema):
        strategy = MergingStrategy(merge_budget=1.0)
        near = box(schema, (10, 20), (0, 10), sid="near")
        far = box(schema, (60, 70), (0, 10), sid="far")
        decision = strategy.decide(
            box(schema, (20, 30), (0, 10), sid="newcomer"), [far, near]
        )
        assert decision.replaced == ("near",)

    def test_hybrid_covers_first(self, schema):
        strategy = HybridStrategy(
            checker=SubsumptionChecker(rng=0), merge_budget=1.0
        )
        big = box(schema, (0, 50), (0, 50), sid="big")
        decision = strategy.decide(
            box(schema, (10, 20), (10, 20), sid="small"), [big]
        )
        assert decision.suppressed
        assert decision.merged is None

    def test_hybrid_merges_the_residue(self, schema):
        strategy = HybridStrategy(
            checker=SubsumptionChecker(rng=0), merge_budget=0.0
        )
        left = box(schema, (0, 10), (0, 10), sid="left")
        decision = strategy.decide(
            box(schema, (10, 20), (0, 10), sid="right"), [left]
        )
        assert decision.merge_performed
        # The probabilistic check ran (and failed to cover) first.
        assert decision.result is not None


# ----------------------------------------------------------------------
# Satellite: MCS-minimized suppression dependencies (group policy)
# ----------------------------------------------------------------------
class TestMinimizedCoverDependencies:
    def test_store_records_mcs_cover_set(
        self, table3_subscription, table7_candidates
    ):
        """``s3`` is MCS-removable, so it must not become a dependency."""
        store = SubscriptionStore(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=3),
        )
        for candidate in table7_candidates:
            store.add(candidate)
        decision = store.add(table3_subscription)
        assert not decision.forwarded
        assert set(decision.covered_by) == {"s1", "s2"}
        assert len(decision.covered_by) < len(table7_candidates)
        assert set(store.cover_links["s"]) == {"s1", "s2"}

    def test_broker_dependencies_shrink_and_skip_rechecks(
        self, schema_2d, table3_subscription, table7_candidates
    ):
        broker = Broker(
            "B1",
            neighbors=["B2"],
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=1),
        )
        for candidate in table7_candidates:
            broker.handle_subscription(
                SubscriptionMessage(
                    sender=None, recipient="B1",
                    subscription=candidate.replace(subscriber="c"),
                    origin="B1",
                )
            )
        broker.handle_subscription(
            SubscriptionMessage(
                sender=None, recipient="B1",
                subscription=table3_subscription.replace(subscriber="c"),
                origin="B1",
            )
        )
        deps = broker.links["B2"].cover_links["s"]
        assert set(deps) == {"s1", "s2"}
        # The departure of the inessential candidate must not trigger a
        # re-check of ``s`` (pre-refactor it depended on every candidate).
        checks_before = len(broker.decisions)
        outgoing, decisions = broker.handle_unsubscription(
            UnsubscriptionMessage(
                sender=None, recipient="B1", subscription_id="s3", origin="B1"
            )
        )
        assert decisions == []
        assert len(broker.decisions) == checks_before
        assert "s" in broker.links["B2"].cover_links

    def test_essential_departure_still_readvertises(
        self, schema_2d, table3_subscription, table7_candidates
    ):
        broker = Broker(
            "B1",
            neighbors=["B2"],
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-6, rng=1),
        )
        for candidate in table7_candidates:
            broker.handle_subscription(
                SubscriptionMessage(
                    sender=None, recipient="B1",
                    subscription=candidate.replace(subscriber="c"),
                    origin="B1",
                )
            )
        broker.handle_subscription(
            SubscriptionMessage(
                sender=None, recipient="B1",
                subscription=table3_subscription.replace(subscriber="c"),
                origin="B1",
            )
        )
        outgoing, decisions = broker.handle_unsubscription(
            UnsubscriptionMessage(
                sender=None, recipient="B1", subscription_id="s1", origin="B1"
            )
        )
        # The cover broke: ``s`` was re-checked and re-advertised.
        assert any(d.subscription_id == "s" for d in decisions)
        assert any(
            isinstance(m, SubscriptionMessage) and m.subscription.id == "s"
            for m in outgoing
        )


# ----------------------------------------------------------------------
# Differential sweeps (end to end)
# ----------------------------------------------------------------------
def _scaled_t2_burst() -> ScenarioSpec:
    """The t2-burst shape at differential-test scale."""
    spec = REGISTRY.get("t2-burst")
    scaled = []
    for phase in spec.phases:
        params = {
            key: (max(value // 4, 1) if isinstance(value, int) else value)
            for key, value in phase.params.items()
        }
        scaled.append(dataclasses.replace(phase, params=params))
    return dataclasses.replace(spec, phases=scaled)


def _run_policy(spec, policy, seed=5, **overrides):
    spec = dataclasses.replace(spec, policy=policy, **overrides)
    return ScenarioRunner(spec, seed=seed).run()


class TestCoveringStrategiesAreEquivalent:
    @pytest.mark.parametrize(
        "scenario", ["t1-churn", pytest.param("t2-burst", id="t2-burst-scaled")]
    )
    def test_identical_notification_sets(self, scenario):
        spec = (
            REGISTRY.get("t1-churn")
            if scenario == "t1-churn"
            else _scaled_t2_burst()
        )
        totals = {}
        for policy in ("none", "pairwise", "group"):
            report = _run_policy(spec, policy)
            totals[policy] = report.totals
            assert report.totals["missed_notifications"] == 0, policy
            assert "false_positive_notifications" not in report.totals
        # Identical delivery counts (the notification sets are identical:
        # nothing is missed and nothing spurious can be delivered).
        assert (
            totals["none"]["notifications"]
            == totals["pairwise"]["notifications"]
            == totals["group"]["notifications"]
        )
        assert (
            totals["none"]["expected_notifications"]
            == totals["pairwise"]["expected_notifications"]
            == totals["group"]["expected_notifications"]
        )
        # The reduction strategies must actually reduce traffic.
        assert (
            totals["pairwise"]["subscription_messages"]
            <= totals["none"]["subscription_messages"]
        )


class TestMergingNeverMisses:
    @pytest.mark.parametrize("policy", ["merging", "hybrid"])
    def test_extras_are_exactly_the_false_positives(self, policy):
        spec = dataclasses.replace(
            REGISTRY.get("t1-churn"), policy=policy, merge_budget=0.4
        )
        # Drive the network directly so the oracle lists are inspectable.
        from repro.scenarios.events import compile_scenario

        compiled = compile_scenario(spec, 5)
        runner = ScenarioRunner(spec, seed=5)
        report = runner.run(compiled)
        assert report.totals["missed_notifications"] == 0
        fp = report.totals.get("false_positive_notifications", 0)
        expected = report.totals["expected_notifications"]
        delivered = report.totals["notifications"]
        # Every owed notification arrived; every extra one is accounted
        # as a false positive.
        assert delivered == expected + fp

    def test_oracle_lists_agree_with_counters(self, schema):
        network = BrokerNetwork(
            line_topology(3), policy="merging", rng=0, merge_budget=0.6
        )
        network.attach_client("sub1", "B1")
        network.attach_client("sub2", "B1")
        network.attach_client("pub", "B3")
        network.subscribe("sub1", box(schema, (0, 10), (0, 10), sid="a"))
        network.subscribe("sub2", box(schema, (20, 30), (0, 10), sid="b"))
        network.publish("pub", point(schema, 15, 5, pid="gap"))
        metrics = network.metrics
        assert metrics.missed == []
        assert metrics.false_positive_notifications == len(
            metrics.false_positives
        )
        assert metrics.false_positive_notifications > 0
        assert metrics.merged_advertisements > 0

    def test_merging_shrinks_routing_state(self, schema):
        sizes = {}
        for policy in ("none", "merging"):
            network = BrokerNetwork(
                line_topology(3), policy=policy, rng=0, merge_budget=0.6
            )
            network.attach_client("sub", "B1")
            network.attach_client("pub", "B3")
            for index in range(6):
                network.subscribe(
                    "sub",
                    box(
                        schema,
                        (index * 10, index * 10 + 10),
                        (0, 10),
                        sid=f"s{index}",
                    ),
                )
            sizes[policy] = network.total_routing_entries()
        assert sizes["merging"] < sizes["none"]

    def test_unsubscribing_all_members_retracts_the_merged_route(self, schema):
        network = BrokerNetwork(
            line_topology(2), policy="merging", rng=0, merge_budget=0.6
        )
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B2")
        network.subscribe("sub", box(schema, (0, 10), (0, 10), sid="a"))
        network.subscribe("sub", box(schema, (10, 20), (0, 10), sid="b"))
        network.unsubscribe("sub", "a")
        network.unsubscribe("sub", "b")
        delivered = network.publish("pub", point(schema, 5, 5, pid="late"))
        assert delivered == []
        assert network.brokers["B2"].table_size == 0


# ----------------------------------------------------------------------
# Engine-level merging (store mirroring)
# ----------------------------------------------------------------------
class TestEngineMerging:
    def test_merging_engine_is_lossless_locally(self, schema):
        subscriptions = [
            box(schema, (i * 10, i * 10 + 12), (0, 50), sid=f"s{i}",
                subscriber=f"client-{i}")
            for i in range(6)
        ]
        publications = [point(schema, x, 25, pid=f"p{x}") for x in range(0, 100, 7)]
        baseline = MatchingEngine(policy="none")
        merging = MatchingEngine(policy="merging", merge_budget=0.5)
        for subscription in subscriptions:
            baseline.subscribe(subscription)
            merging.subscribe(subscription)
        assert merging.store.active_count < baseline.store.active_count
        for publication in publications:
            expected = baseline.match(publication).subscribers
            got = merging.match(publication).subscribers
            assert set(got) == set(expected)

    def test_merging_engine_unsubscribe(self, schema):
        engine = MatchingEngine(policy="merging", merge_budget=0.5)
        engine.subscribe(box(schema, (0, 10), (0, 10), sid="a", subscriber="A"))
        engine.subscribe(box(schema, (10, 20), (0, 10), sid="b", subscriber="B"))
        engine.unsubscribe("a")
        result = engine.match(point(schema, 15, 5))
        assert result.subscribers == ("B",)
        engine.unsubscribe("b")
        # The orphaned merged box is retracted with its last member.
        assert len(engine) == 0
        assert engine.store.active_count == 0
        assert engine.match(point(schema, 15, 5)).matched == ()

    @pytest.mark.parametrize("policy", ["merging", "hybrid"])
    def test_suppressed_sub_survives_its_coverers_merge_and_departure(
        self, schema, policy
    ):
        """Cover links follow an absorbed coverer onto the merged box.

        ``X`` is withheld on ``A``; ``A`` is later absorbed into ``A|B``,
        and ``X``'s cover link is re-pointed at the box.  The box stands
        for its members ``A`` and ``B`` only — ``X`` is withheld on it, not
        a member — so when both members unsubscribe the box is retracted
        and ``X`` is re-decided: advertised by itself, it keeps matching.
        """
        engine = MatchingEngine(policy=policy, merge_budget=1.0)
        engine.subscribe(box(schema, (0, 50), (0, 50), sid="A", subscriber="a"))
        engine.subscribe(box(schema, (10, 20), (10, 20), sid="X", subscriber="x"))
        engine.subscribe(box(schema, (60, 80), (60, 80), sid="B", subscriber="b"))
        engine.unsubscribe("A")
        assert engine.store.cover_links["X"] == ("A|B",)
        engine.unsubscribe("B")
        assert [s.id for s in engine.active_subscriptions] == ["X"]
        result = engine.match(point(schema, 15, 15))
        assert "x" in result.subscribers
        # Once X leaves too, the merged box finally goes.
        engine.unsubscribe("X")
        assert len(engine) == 0
        assert engine.store.active_count == 0

    @pytest.mark.parametrize("policy", ["merging", "hybrid"])
    def test_engine_never_misses_under_churn(self, policy):
        """Store/engine merging loses nothing across an unsubscribe storm."""
        spec = dataclasses.replace(
            REGISTRY.get("t0-smoke"), policy=policy, merge_budget=0.5
        )
        from repro.scenarios.events import EventAction, compile_scenario

        compiled = compile_scenario(spec, 5)
        merged_engine = MatchingEngine(policy=policy, merge_budget=0.5)
        oracle = MatchingEngine(policy="none")
        for event in compiled.events:
            if event.action is EventAction.SUBSCRIBE:
                merged_engine.subscribe(event.subscription)
                oracle.subscribe(event.subscription)
            elif event.action is EventAction.UNSUBSCRIBE:
                merged_engine.unsubscribe(event.subscription_id)
                oracle.unsubscribe(event.subscription_id)
            else:
                expected = set(oracle.match(event.publication).subscribers)
                got = set(merged_engine.match(event.publication).subscribers)
                assert got == expected, event.publication.id

    def test_orphaned_merge_retraction_cascades(self, schema):
        """Absorbing a merged box into a bigger one still retracts cleanly."""
        engine = MatchingEngine(policy="merging", merge_budget=1.0)
        for index, sid in enumerate("abc"):
            engine.subscribe(
                box(schema, (index * 10, index * 10 + 10), (0, 10), sid=sid,
                    subscriber=sid.upper())
            )
        assert engine.store.active_count == 1  # everything merged together
        for sid in "abc":
            engine.unsubscribe(sid)
        assert len(engine) == 0
        assert engine.store.active_count == 0
        assert engine.match(point(schema, 15, 5)).matched == ()


# ----------------------------------------------------------------------
# Spec / trace threading
# ----------------------------------------------------------------------
class TestStrategyThreading:
    def test_default_spec_serialization_unchanged(self):
        spec = REGISTRY.get("t0-smoke")
        payload = spec.to_dict()
        assert "merge_budget" not in payload
        assert payload["policy"] == "group"

    def test_merging_spec_round_trip(self):
        spec = REGISTRY.get("t0-merging")
        payload = spec.to_dict()
        assert payload["policy"] == "merging"
        assert payload["merge_budget"] == pytest.approx(0.4)
        assert ScenarioSpec.from_dict(payload) == spec

    def test_merge_budget_binds_the_trace_hash(self):
        from repro.scenarios.events import compile_scenario

        spec = REGISTRY.get("t0-merging")
        other = dataclasses.replace(spec, merge_budget=0.05)
        assert (
            compile_scenario(spec, 7).trace_hash()
            != compile_scenario(other, 7).trace_hash()
        )

    def test_merging_replay_reproduces_metrics(self, tmp_path):
        from repro.scenarios.events import compile_scenario
        from repro.scenarios.trace import read_trace, write_trace

        spec = REGISTRY.get("t0-merging")
        compiled = compile_scenario(spec, 7)
        original = ScenarioRunner(spec, seed=7).run(compiled)
        path = tmp_path / "merging.jsonl"
        write_trace(path, compiled, backend="network")
        replayed = ScenarioRunner(backend="network").run(read_trace(path))
        assert replayed.phase_metrics() == original.phase_metrics()
        assert replayed.policy == "merging"

    def test_cli_policy_override(self, capsys):
        from repro.scenarios.cli import main

        code = main(
            ["run", "t0-smoke", "--seed", "3", "--policy", "merging",
             "--merge-budget", "0.4", "--json"]
        )
        assert code == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["policy"] == "merging"
        assert report["totals"]["missed_notifications"] == 0

    def test_invalid_merge_budget_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(REGISTRY.get("t0-smoke"), merge_budget=-1.0)


# ----------------------------------------------------------------------
# Metrics gating
# ----------------------------------------------------------------------
class TestMetricsGating:
    def test_covering_phase_metrics_have_no_merge_keys(self):
        report = _run_policy(REGISTRY.get("t0-smoke"), "pairwise", seed=2)
        for phase in report.phases:
            assert "false_positive_notifications" not in phase.metrics
            assert "merged_advertisements" not in phase.metrics
            assert "dead_letter_publications" not in phase.metrics

    def test_merging_phase_metrics_surface_the_trade_off(self):
        report = _run_policy(
            REGISTRY.get("t0-merging"), "merging", seed=7, merge_budget=0.4
        )
        assert report.totals["merged_advertisements"] > 0
        assert report.totals["false_positive_notifications"] > 0
        assert any(
            "false_positive_notifications" in phase.metrics
            for phase in report.phases
        )
