"""Tests for scenario compilation, execution, tracing and replay."""

import dataclasses
import json

import pytest

from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.model.errors import DomainError
from repro.scenarios import (
    EventAction,
    ScenarioRunner,
    compile_scenario,
    get_scenario,
    read_trace,
    write_trace,
)
from repro.scenarios.cli import main
from repro.scenarios.events import derive_streams
from repro.scenarios.trace import TraceError
from repro.utils.rng import ensure_rng


def _phase_metrics(report):
    return [(phase.name, phase.events, phase.metrics) for phase in report.phases]


class TestCompilation:
    def test_same_spec_and_seed_gives_identical_trace_hash(self):
        spec = get_scenario("t0-smoke")
        first = compile_scenario(spec, seed=7)
        second = compile_scenario(spec, seed=7)
        assert first.trace_hash() == second.trace_hash()

    def test_different_seed_gives_different_stream(self):
        spec = get_scenario("t0-smoke")
        assert (
            compile_scenario(spec, seed=1).trace_hash()
            != compile_scenario(spec, seed=2).trace_hash()
        )

    def test_identifiers_are_scenario_scoped(self):
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=0)
        subscribes = [
            e for e in compiled.events if e.action is EventAction.SUBSCRIBE
        ]
        assert [e.subscription.id for e in subscribes[:3]] == [
            "s00001",
            "s00002",
            "s00003",
        ]

    def test_unsubscribes_target_live_subscriptions(self):
        compiled = compile_scenario(get_scenario("t1-churn"), seed=0)
        live = {}
        for event in compiled.events:
            if event.action is EventAction.SUBSCRIBE:
                live[event.subscription.id] = event.client
            elif event.action is EventAction.UNSUBSCRIBE:
                # must cancel a live subscription, from the owning client
                assert live.pop(event.subscription_id) == event.client


class TestReplay:
    def test_trace_round_trip_preserves_stream(self, tmp_path):
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=5)
        path = tmp_path / "t0.jsonl"
        digest = write_trace(path, compiled)
        loaded = read_trace(path)
        assert loaded.trace_hash() == digest == compiled.trace_hash()
        assert loaded.edges == compiled.edges
        assert loaded.clients == compiled.clients
        assert loaded.spec == compiled.spec

    def test_replay_reproduces_per_phase_metrics(self, tmp_path):
        spec = get_scenario("t0-smoke")
        compiled = compile_scenario(spec, seed=7)
        original = ScenarioRunner(spec, seed=7).run(compiled)

        path = tmp_path / "run.jsonl"
        write_trace(path, compiled)
        replayed = ScenarioRunner().run(read_trace(path))

        assert _phase_metrics(replayed) == _phase_metrics(original)
        assert replayed.totals == original.totals
        assert replayed.trace_hash == original.trace_hash

    def test_replay_defaults_to_the_recorded_backend(self, tmp_path):
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=2)
        path = tmp_path / "engine.jsonl"
        write_trace(path, compiled, backend="engine")
        loaded = read_trace(path)
        assert loaded.recorded_backend == "engine"
        original = ScenarioRunner(backend="engine").run(compiled)
        replayed = ScenarioRunner(backend=loaded.recorded_backend).run(loaded)
        assert _phase_metrics(replayed) == _phase_metrics(original)

    def test_tampered_header_is_rejected(self, tmp_path):
        """The hash binds the header too, not just the event lines."""
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=1)
        path = tmp_path / "hdr.jsonl"
        write_trace(path, compiled)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["scenario"]["policy"] = "pairwise"
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="hash mismatch"):
            read_trace(path)

    def test_corrupted_trace_is_rejected(self, tmp_path):
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=1)
        path = tmp_path / "bad.jsonl"
        write_trace(path, compiled)
        lines = path.read_text().splitlines()
        del lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_real_valued_schema_is_rejected(self, tmp_path):
        """A trace is input from outside: a domain that is not a finite
        ordered set of ticks fails where the schema is read."""
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=1)
        path = tmp_path / "real.jsonl"
        write_trace(path, compiled)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"]["attributes"][0]["domain"] = {
            "type": "continuous", "lower": 0.0, "upper": 1.0, "resolution": 1e-9
        }
        lines[0] = json.dumps(header, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="unknown domain type 'continuous'"):
            read_trace(path, verify=False)

    def test_non_trace_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(TraceError, match="not a scenario trace"):
            read_trace(path)


class TestEndToEnd:
    def test_t0_pairwise_run_loses_no_notifications(self):
        """Churn-free T0 under the deterministic pairwise policy is lossless."""
        spec = dataclasses.replace(get_scenario("t0-discovery"), policy="pairwise")
        report = ScenarioRunner(spec, seed=3).run()
        assert report.totals["notifications"] > 0
        assert report.totals["missed_notifications"] == 0
        assert report.false_decision_rate == 0.0
        assert report.totals["delivery_ratio"] == 1.0

    def test_phase_reports_cover_the_whole_timeline(self):
        spec = get_scenario("t0-smoke")
        report = ScenarioRunner(spec, seed=2).run()
        assert [phase.name for phase in report.phases] == [phase.name for phase in spec.phases]
        assert sum(phase.events for phase in report.phases) == report.event_count
        storm = next(p for p in report.phases if p.name == "storm")
        assert storm.unsubscribes > 0
        assert storm.metrics["unsubscription_messages"] > 0

    def test_engine_backend_runs_the_same_stream(self):
        spec = get_scenario("t0-smoke")
        compiled = compile_scenario(spec, seed=4)
        report = ScenarioRunner(backend="engine").run(compiled)
        assert report.backend == "engine"
        assert report.event_count == compiled.event_count
        assert report.totals["publications"] > 0
        # the rendered table shows the engine's own metrics, not dashes
        rendered = report.render()
        assert "active tests" in rendered
        assert "stored subs" in rendered

    def test_report_serializes_and_renders(self):
        report = ScenarioRunner(get_scenario("t0-smoke"), seed=1).run()
        payload = report.to_dict()
        json.dumps(payload)  # JSON-safe
        assert payload["scenario"] == "t0-smoke"
        rendered = report.render()
        assert "t0-smoke" in rendered
        assert "TOTAL" in rendered


POLICIES = ("none", "pairwise", "group", "merging", "hybrid")


def _engine_for(compiled):
    """The in-process engine the runner builds for ``compiled``."""
    spec = compiled.spec
    checker = SubsumptionChecker(
        delta=spec.delta,
        max_iterations=spec.max_iterations,
        rng=ensure_rng(derive_streams(compiled.seed)["network"]),
    )
    return MatchingEngine(
        policy=spec.policy, checker=checker, merge_budget=spec.merge_budget
    )


def _publish_runs(compiled):
    """Event runs: subscribes and unsubscribes alone, each maximal run of
    a phase's consecutive publishes together."""
    runs = []
    for event in compiled.events:
        last = runs[-1][-1] if runs else None
        if (
            event.action is EventAction.PUBLISH
            and last is not None
            and last.action is EventAction.PUBLISH
            and last.phase == event.phase
        ):
            runs[-1].append(event)
        else:
            runs.append([event])
    return runs


def _reference_report(compiled):
    """Per-phase metrics and totals of one ``match`` call per publication."""
    engine = _engine_for(compiled)
    phases = {}
    for name in [phase.name for phase in compiled.spec.phases]:
        before = dict(engine.stats)
        for event in (e for e in compiled.events if e.phase == name):
            if event.action is EventAction.SUBSCRIBE:
                engine.subscribe(event.subscription)
            elif event.action is EventAction.UNSUBSCRIBE:
                engine.unsubscribe(event.subscription_id)
            else:
                engine.match(event.publication)
        metrics = {key: engine.stats[key] - before[key] for key in engine.stats}
        metrics["subscriptions_total"] = len(engine)
        phases[name] = metrics
    totals = dict(engine.stats)
    totals["subscriptions_total"] = len(engine)
    return phases, totals


class TestEnginePublishBursts:
    """The engine backend takes every publish run as one ``match_batch``
    burst; nothing it reports may differ from one ``match`` per
    publication."""

    @pytest.mark.parametrize("scenario", ["t0-smoke", "t1-churn"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_runner_reports_what_one_match_per_publication_reports(
        self, scenario, policy
    ):
        spec = dataclasses.replace(get_scenario(scenario), policy=policy)
        compiled = compile_scenario(spec, seed=7)
        report = ScenarioRunner(backend="engine").run(compiled)
        phases, totals = _reference_report(compiled)
        assert {p.name: p.metrics for p in report.phases} == phases
        assert report.totals == totals
        assert report.totals["publications"] > 0

    @pytest.mark.parametrize("scenario", ["t0-smoke", "t1-churn"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_match_batch_equals_match_field_by_field(self, scenario, policy):
        spec = dataclasses.replace(get_scenario(scenario), policy=policy)
        compiled = compile_scenario(spec, seed=7)
        engine = _engine_for(compiled)
        longest = 0
        for events in _publish_runs(compiled):
            first = events[0]
            if first.action is EventAction.SUBSCRIBE:
                engine.subscribe(first.subscription)
                continue
            if first.action is EventAction.UNSUBSCRIBE:
                engine.unsubscribe(first.subscription_id)
                continue
            burst = [event.publication for event in events]
            longest = max(longest, len(burst))
            before = dict(engine.stats)
            batched = engine.match_batch(burst)
            middle = dict(engine.stats)
            single = [engine.match(publication) for publication in burst]
            for key in before:
                assert middle[key] - before[key] == engine.stats[key] - middle[key]
            assert [_fields(result) for result in batched] == [
                _fields(result) for result in single
            ]
        assert longest > 1


def _fields(result):
    return (
        result.publication,
        result.matched,
        result.subscribers,
        result.active_tests,
        result.covered_tests,
    )


class TestCli:
    def test_list_shows_all_tiers(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("t0-smoke", "t1-churn", "t3-stress"):
            assert name in output

    def test_describe_shows_timeline(self, capsys):
        assert main(["describe", "t1-churn"]) == 0
        output = capsys.readouterr().out
        assert "subscribe_ramp" in output
        assert "unsubscribe_storm" in output

    def test_run_then_replay_match(self, capsys, tmp_path):
        trace = str(tmp_path / "cli.jsonl")
        assert main(["run", "t0-smoke", "--seed", "7", "--trace", trace,
                     "--json"]) == 0
        run_payload = json.loads(capsys.readouterr().out)
        assert main(["replay", trace, "--json"]) == 0
        replay_payload = json.loads(capsys.readouterr().out)

        strip = lambda r: [
            {"name": p["name"], "events": p["events"], "metrics": p["metrics"]}
            for p in r["phases"]
        ]
        assert strip(run_payload) == strip(replay_payload)
        assert run_payload["totals"] == replay_payload["totals"]
        assert run_payload["trace_hash"] == replay_payload["trace_hash"]

    def test_unknown_scenario_exits_nonzero(self, capsys):
        assert main(["run", "definitely-not-registered"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
