"""Tests of the observability subsystem (``repro.obs``).

Three layers are covered:

* the instrument registry and span primitives in isolation;
* the zero-overhead guarantee — with no probe installed, every policy's
  network run reproduces the committed pre-observability traces and
  metric reports byte for byte (``tests/data/pre_obs``);
* causal completeness — in a span-enabled run every delivered
  notification has a full injected→deliver chain and every
  non-delivering publication terminates at an attributable stage.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.broker.metrics import _latency_stats, NetworkMetrics
from repro.broker.network import BrokerNetwork
from repro.obs.instruments import Histogram, InstrumentRegistry
from repro.model import Publication, Schema, Subscription
from repro.model.errors import ValidationError
from repro.obs.probes import ObsProbe, active, disable, enabled, install, stage
from repro.obs.report import chain_status, render_report, summarize
from repro.obs.spans import SpanRecorder, read_spans, write_spans
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.cli import main as scenarios_main
from repro.scenarios.events import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.trace import write_trace

PRE_OBS = Path(__file__).parent / "data" / "pre_obs"

#: the committed pre-observability goldens: every reduction strategy on
#: t0-smoke plus the churn-heavy t1 tier on the default policy
GOLDENS = [
    ("t0-smoke", "none"),
    ("t0-smoke", "pairwise"),
    ("t0-smoke", "group"),
    ("t0-smoke", "merging"),
    ("t0-smoke", "hybrid"),
    ("t1-churn", "group"),
]

#: keys stripped from golden reports (wall-clock dependent)
VOLATILE = {"wall_time", "events_per_second"}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _compiled(scenario: str, policy: str):
    spec = dataclasses.replace(get_scenario(scenario), policy=policy)
    return spec, compile_scenario(spec, 7)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_get_or_create_and_labels(self):
        registry = InstrumentRegistry()
        a = registry.counter("hops", link="B1->B2")
        b = registry.counter("hops", link="B1->B2")
        c = registry.counter("hops", link="B2->B3")
        assert a is b and a is not c
        a.inc()
        a.inc(2)
        assert a.value == 3
        assert a.key == "hops{link=B1->B2}"
        assert len(registry) == 2

    def test_kind_clash_raises(self):
        registry = InstrumentRegistry()
        registry.counter("depth")
        with pytest.raises(TypeError):
            registry.gauge("depth")

    def test_gauge_update_max(self):
        gauge = InstrumentRegistry().gauge("queue")
        gauge.update_max(5)
        gauge.update_max(3)
        assert gauge.value == 5
        gauge.set(1)
        assert gauge.value == 1

    def test_histogram_percentiles_and_empty(self):
        histogram = Histogram("lat")
        assert histogram.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        stats = histogram.summary()
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["max"] == 4.0

    def test_snapshot_diff_semantics(self):
        registry = InstrumentRegistry()
        counter = registry.counter("msgs")
        gauge = registry.gauge("depth")
        histogram = registry.histogram("lat")
        counter.inc(5)
        gauge.set(7)
        histogram.observe(1.0)
        before = registry.snapshot()
        counter.inc(3)
        gauge.set(2)
        histogram.observe(1.0)
        delta = registry.diff(before)
        assert delta["msgs"] == 3          # counters subtract
        assert delta["depth"] == 2         # gauges report current level
        assert delta["lat"] == 1           # histograms diff sample counts


# ----------------------------------------------------------------------
# Probe gating / stage timers
# ----------------------------------------------------------------------
class TestProbes:
    def test_disabled_by_default(self):
        assert active() is None

    def test_install_and_disable(self):
        probe = install()
        try:
            assert active() is probe
        finally:
            disable()
        assert active() is None

    def test_enabled_restores_previous(self):
        outer = ObsProbe()
        with enabled(outer):
            with enabled() as inner:
                assert active() is inner
            assert active() is outer
        assert active() is None

    def test_stage_self_time_subtracts_children(self):
        probe = ObsProbe()
        probe.stage_push("outer")
        probe.stage_push("inner")
        probe.stage_pop()
        probe.stage_pop()
        totals = dict(
            (stage, seconds) for stage, seconds, _ in probe.stage_totals()
        )
        assert set(totals) == {"outer", "inner"}
        # outer's self-time excludes inner's duration, so the two are
        # independent non-negative quantities
        assert totals["outer"] >= 0.0 and totals["inner"] >= 0.0
        probe.flush_stages_to_registry()
        assert probe.registry.get("obs.stage_calls", stage="inner").value == 1

    def test_stage_helper_times_blocks_and_calls(self):
        @stage("decorated")
        def double(value):
            return 2 * value

        with stage("block"):  # no probe installed: nothing to time
            assert double(4) == 8
        assert double.__name__ == "double"
        probe = ObsProbe()
        with enabled(probe):
            with stage("block"):
                double(1)
                double(2)
        assert probe.stage_calls == {"block": 1, "decorated": 2}
        assert probe._stack == []

    def test_stage_helper_pops_however_the_body_exits(self):
        @stage("decorated")
        def fail():
            raise KeyError("boom")

        probe = ObsProbe()
        with enabled(probe):
            with pytest.raises(KeyError):
                with stage("block"):
                    fail()
        assert probe.stage_calls == {"block": 1, "decorated": 1}
        assert probe._stack == []

    def test_a_raising_oracle_leaves_no_stage_open(self):
        probe = ObsProbe()
        with enabled(probe):
            network = BrokerNetwork([("B1", "B2")])
            network.attach_client("c1", "B1")
            network.attach_client("c2", "B2")
            narrow = Schema.uniform_integer(2, 0, 10)
            network.subscribe(
                "c2", Subscription(narrow, [0, 0], [10, 10], subscription_id="s")
            )
            wide = Schema.uniform_integer(3, 0, 10)
            with pytest.raises(ValidationError):
                network.publish("c1", Publication(wide, [1, 1, 1]))
            assert probe._stack == []
            assert probe.stage_calls["network.oracle"] == 1
            network.publish("c1", Publication(narrow, [1, 1]))
        assert probe._stack == []
        assert probe.stage_calls["network.oracle"] == 2
        assert probe.stage_calls["network.collect"] == 1

    def test_metrics_share_probe_registry(self):
        probe = ObsProbe()
        with enabled(probe):
            network = BrokerNetwork([("B1", "B2")])
        network.metrics.notifications += 3
        assert (
            probe.registry.get("network.notifications").value == 3
        )


# ----------------------------------------------------------------------
# Per-stage call counts: the per-layer ``*_calls`` rows of ``bench/``
# ----------------------------------------------------------------------
#: ``probe.stage_calls`` of one observed seed-7 run per
#: ``(scenario, backend, shards)``
STAGE_CALLS = {
    ("t0-smoke", "network", 0): {
        "broker.decision": 36,
        "broker.dedup": 13,
        "broker.match_forward": 13,
        "broker.route_lookup": 13,
        "kernel.schedule": 60,
        "network.collect": 2,
        "network.handle_publication": 13,
        "network.handle_subscription": 36,
        "network.handle_unsubscription": 18,
        "network.oracle": 2,
    },
    ("t1-churn", "network", 0): {
        "broker.decision": 1076,
        "broker.dedup": 296,
        "broker.match_forward": 250,
        "broker.route_lookup": 250,
        "kernel.schedule": 851,
        "network.collect": 39,
        "network.handle_publication": 296,
        "network.handle_subscription": 693,
        "network.handle_unsubscription": 279,
        "network.oracle": 39,
    },
    ("t0-merging", "network", 0): {
        "broker.decision": 37,
        "broker.dedup": 14,
        "broker.match_forward": 14,
        "broker.route_lookup": 14,
        "kernel.schedule": 54,
        "network.collect": 2,
        "network.handle_publication": 14,
        "network.handle_subscription": 36,
        "network.handle_unsubscription": 20,
        "network.oracle": 2,
    },
    ("t0-latency", "network", 0): {
        "broker.decision": 36,
        "broker.dedup": 47,
        "broker.match_forward": 47,
        "broker.route_lookup": 47,
        "kernel.schedule": 99,
        "network.collect": 30,
        "network.handle_publication": 47,
        "network.handle_subscription": 36,
        "network.handle_unsubscription": 18,
        "network.oracle": 30,
    },
    ("t0-smoke", "engine", 0): {
        "engine.match": 30,
        "engine.subscribe": 12,
        "engine.unsubscribe": 6,
    },
    ("t1-churn", "engine", 2): {"shard.collect": 39, "shard.dispatch": 39},
}


@pytest.mark.parametrize("scenario, backend, shards", sorted(STAGE_CALLS))
def test_stage_calls_are_pinned(scenario, backend, shards):
    probe = ObsProbe()
    ScenarioRunner(
        get_scenario(scenario), seed=7, backend=backend, obs=probe, shards=shards
    ).run()
    assert probe.stage_calls == STAGE_CALLS[scenario, backend, shards]
    assert probe._stack == []


# ----------------------------------------------------------------------
# Latency-stats satellite
# ----------------------------------------------------------------------
class TestLatencyStats:
    def test_empty_input_yields_stable_zero_dict(self):
        stats = _latency_stats([])
        assert stats == {
            "delivery_latency_p50": 0.0,
            "delivery_latency_p95": 0.0,
            "delivery_latency_p99": 0.0,
            "delivery_latency_mean": 0.0,
            "delivery_latency_max": 0.0,
        }
        # a fresh dict each call — mutating one must not leak
        stats["delivery_latency_p50"] = 9.0
        assert _latency_stats([])["delivery_latency_p50"] == 0.0

    def test_non_empty_unchanged(self):
        stats = _latency_stats([1.0, 3.0])
        assert stats["delivery_latency_mean"] == pytest.approx(2.0)
        assert stats["delivery_latency_max"] == 3.0

    def test_registry_backed_metrics_preserve_list_semantics(self):
        metrics = NetworkMetrics(track_latency=True)
        assert metrics.delivery_latencies == []
        metrics.delivery_latencies.extend([0.5, 1.5])
        assert metrics.delivery_latencies[1:] == [1.5]
        assert metrics.registry.get("network.delivery_latency").count == 2


# ----------------------------------------------------------------------
# Differential: obs-disabled runs are byte-identical to pre-obs goldens
# ----------------------------------------------------------------------
class TestPreObsByteIdentity:
    @pytest.mark.parametrize("scenario,policy", GOLDENS)
    def test_trace_bytes_identical(self, tmp_path, scenario, policy):
        assert active() is None, "another test leaked an installed probe"
        _, compiled = _compiled(scenario, policy)
        path = tmp_path / "trace.jsonl"
        write_trace(path, compiled, backend="network")
        golden = (PRE_OBS / f"{scenario}-{policy}.jsonl").read_bytes()
        assert path.read_bytes() == golden

    @pytest.mark.parametrize("scenario,policy", GOLDENS)
    def test_report_identical(self, scenario, policy):
        assert active() is None, "another test leaked an installed probe"
        spec, compiled = _compiled(scenario, policy)
        report = ScenarioRunner(spec, seed=7, backend="network").run(compiled)
        golden = json.loads(
            (PRE_OBS / f"{scenario}-{policy}.report.json").read_text()
        )
        produced = _strip(json.loads(json.dumps(report.to_dict())))
        assert produced == _strip(golden)

    def test_observed_run_reports_same_metrics(self):
        # Observability must be purely observational: the same scenario
        # with a span-recording probe attached reports identical metrics
        # and trace hash.
        spec, compiled = _compiled("t0-smoke", "group")
        baseline = ScenarioRunner(spec, seed=7, backend="network").run(compiled)
        probe = ObsProbe(spans=SpanRecorder())
        observed = ScenarioRunner(
            spec, seed=7, backend="network", obs=probe
        ).run(compiled)
        assert observed.trace_hash == baseline.trace_hash
        assert observed.totals == baseline.totals
        assert [p.metrics for p in observed.phases] == [
            p.metrics for p in baseline.phases
        ]
        assert len(probe.spans.spans) > 0


# ----------------------------------------------------------------------
# Span completeness
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def churn_spans():
    """One span-enabled t1-churn run shared by the completeness tests."""
    spec, compiled = _compiled("t1-churn", "group")
    recorder = SpanRecorder()
    probe = ObsProbe(spans=recorder)
    report = ScenarioRunner(spec, seed=7, backend="network", obs=probe).run(
        compiled
    )
    return report, recorder


class TestSpanCompleteness:
    def test_every_delivery_has_full_causal_chain(self, churn_spans):
        report, recorder = churn_spans
        chains = recorder.traces()
        deliver_count = 0
        for spans in chains.values():
            stages = [span.stage for span in spans]
            for span in spans:
                if span.stage != "deliver":
                    continue
                deliver_count += 1
                assert stages[0] == "injected"
                assert "match" in stages and "route-lookup" in stages
        # every notification the metrics counted is present as a leaf
        assert deliver_count == report.totals["notifications"]

    def test_publication_chains_all_attributable(self, churn_spans):
        _, recorder = churn_spans
        statuses = {
            trace_id: chain_status(spans)
            for trace_id, spans in recorder.traces().items()
            if spans and spans[0].kind == "publication"
        }
        assert statuses, "no publication traces recorded"
        dangling = [t for t, s in statuses.items() if s not in ("complete", "terminated")]
        assert dangling == []

    def test_trace_ids_deterministic(self):
        spec, compiled = _compiled("t0-smoke", "group")
        recorders = []
        for _ in range(2):
            recorder = SpanRecorder()
            ScenarioRunner(
                spec, seed=7, backend="network", obs=ObsProbe(spans=recorder)
            ).run(compiled)
            recorders.append(recorder)
        first, second = recorders
        assert [s.to_dict() for s in first.spans] == [
            s.to_dict() for s in second.spans
        ]


# ----------------------------------------------------------------------
# JSONL round-trip + report rendering
# ----------------------------------------------------------------------
class TestSpanFiles:
    def test_roundtrip(self, tmp_path, churn_spans):
        _, recorder = churn_spans
        path = tmp_path / "spans.jsonl"
        written = write_spans(path, recorder)
        loaded = read_spans(path)
        assert written == len(recorder.spans)
        assert [s.to_dict() for s in loaded.spans] == [
            s.to_dict() for s in recorder.spans
        ]
        assert loaded.queue_samples == recorder.queue_samples

    def test_report_renders(self, churn_spans):
        _, recorder = churn_spans
        text = render_report(recorder)
        assert "Per-stage virtual time" in text
        assert "hop-count distribution" in text
        summary = summarize(recorder)
        assert summary["spans"] == len(recorder.spans)
        assert summary["chain_status"].get("dangling", 0) == 0

    def test_read_rejects_non_span_file(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError):
            read_spans(path)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCli:
    def test_run_obs_spans_and_metrics_json(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        metrics = tmp_path / "metrics.json"
        code = scenarios_main(
            [
                "run",
                "t0-smoke",
                "--seed",
                "7",
                "--obs-spans",
                str(spans),
                "--metrics-json",
                str(metrics),
            ]
        )
        assert code == 0
        assert spans.exists() and metrics.exists()
        loaded = read_spans(spans)
        assert len(loaded.spans) > 0
        payload = json.loads(metrics.read_text())
        assert payload["scenario"] == "t0-smoke"
        assert payload["totals"]["notifications"] >= 0
        assert [phase["name"] for phase in payload["phases"]]
        capsys.readouterr()

    def test_obs_report_cli(self, tmp_path, capsys, churn_spans):
        from repro.obs.cli import main as obs_main

        _, recorder = churn_spans
        path = tmp_path / "spans.jsonl"
        write_spans(path, recorder)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "traces" in out
        assert obs_main(["report", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] == len(recorder.spans)

    def test_obs_report_missing_file(self, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["report", "/nonexistent/spans.jsonl"]) == 2
        capsys.readouterr()
