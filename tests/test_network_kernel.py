"""Tests for the virtual-time event-driven network kernel.

Covers the :mod:`repro.broker.sim` primitives (latency models, scheduler,
per-link FIFO), the metrics they feed
(delivery-latency percentiles, queue-depth high-water marks, histogram)
and the scenario-layer threading (spec field, trace header, replay
round-trip, CLI flag).
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.broker import (
    BrokerNetwork,
    CoveringPolicy,
    FixedLatency,
    LognormalLatency,
    ZeroLatency,
    line_topology,
    make_latency_model,
    parse_latency_model,
)
from repro.broker.messages import PublicationMessage
from repro.broker.sim import EventKernel, LatencyModel
from repro.model import Publication, Schema, Subscription
from repro.scenarios.cli import main as cli_main
from repro.scenarios.events import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trace import read_trace, write_trace


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def whole_space(schema, sid="all"):
    return Subscription.whole_space(schema, subscription_id=sid)


def make_network(policy=CoveringPolicy.NONE, size=3, **kwargs):
    network = BrokerNetwork(line_topology(size), policy=policy, rng=0, **kwargs)
    network.attach_client("sub", "B1")
    network.attach_client("pub", f"B{size}")
    return network


class TestLatencyModelParsing:
    def test_families_and_parameters(self):
        assert parse_latency_model("zero") == ("zero", ())
        assert parse_latency_model("fixed") == ("fixed", ())
        assert parse_latency_model("fixed:0.25") == ("fixed", (0.25,))
        assert parse_latency_model("lognormal:0.5,1.0") == ("lognormal", (0.5, 1.0))

    @pytest.mark.parametrize(
        "bad",
        [
            "warp",
            "zero:1",
            "fixed:a",
            "fixed:1,2",
            "fixed:-1",
            "lognormal:1,2,3",
            "lognormal:0,-1",
            "fixed:nan",
            "fixed:inf",
            "fixed:-inf",
            "lognormal:nan",
            "lognormal:0,nan",
            "lognormal:inf,0.5",
            "lognormal:0,inf",
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_latency_model(bad)

    def test_factory_builds_the_right_types(self):
        assert isinstance(make_latency_model("zero"), ZeroLatency)
        fixed = make_latency_model("fixed:0.5")
        assert isinstance(fixed, FixedLatency) and fixed.delay == 0.5
        lognormal = make_latency_model("lognormal:0.1,0.2", rng=1)
        assert isinstance(lognormal, LognormalLatency)
        assert lognormal.spec == "lognormal:0.1,0.2"

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)
        with pytest.raises(ValueError):
            LognormalLatency(sigma=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            FixedLatency(value)
        with pytest.raises(ValueError, match="finite"):
            LognormalLatency(mu=value)
        with pytest.raises(ValueError, match="finite"):
            LognormalLatency(sigma=value)


class TestVirtualClock:
    def test_zero_model_never_advances_time(self, schema):
        network = make_network()
        network.subscribe("sub", whole_space(schema))
        network.publish("pub", Publication.from_values(schema, {"x1": 1, "x2": 1}))
        assert network.now == 0.0
        # Untimed runs don't accumulate latency samples (flat memory).
        assert network.metrics.delivery_latencies == []
        assert all(
            broker.delivered_latencies == []
            for broker in network.brokers.values()
        )

    def test_fixed_model_charges_per_hop(self, schema):
        network = make_network(latency_model="fixed:0.5")
        network.subscribe("sub", whole_space(schema))
        clock_after_subscribe = network.now
        # The subscription flooded two hops down the line.
        assert clock_after_subscribe == pytest.approx(1.0)
        network.publish("pub", Publication.from_values(schema, {"x1": 1, "x2": 1}))
        # The publication travelled B3 -> B2 -> B1: two hops at 0.5 each.
        assert network.metrics.delivery_latencies == [pytest.approx(1.0)]
        assert network.now > clock_after_subscribe

    def test_shared_model_instance_is_not_reseeded(self, schema):
        """Adopting a caller-supplied model must not splice streams."""
        model = LognormalLatency(rng=42)
        solo = LognormalLatency(rng=42)
        network_a = BrokerNetwork(
            line_topology(2), policy=CoveringPolicy.NONE, rng=0, latency_model=model
        )
        BrokerNetwork(
            line_topology(2), policy=CoveringPolicy.NONE, rng=1, latency_model=model
        )
        assert network_a.latency_model is model
        # Neither construction consumed or replaced the model's stream.
        assert model.sample("A", "B") == solo.sample("A", "B")

    def test_lognormal_model_is_deterministic_per_seed(self, schema):
        def run():
            network = make_network(latency_model="lognormal:0.0,0.5")
            network.subscribe("sub", whole_space(schema))
            for index in range(10):
                network.publish(
                    "pub",
                    Publication.from_values(
                        schema, {"x1": index, "x2": index}, publication_id=f"p{index}"
                    ),
                )
            return list(network.metrics.delivery_latencies)

        first, second = run(), run()
        assert first == second
        assert all(latency > 0 for latency in first)
        assert len(set(first)) > 1  # actually stochastic, not constant


class _ShrinkingLatency(LatencyModel):
    """Pathological model: each successive hop is faster than the last."""

    name = "fixed"
    spec = "fixed:test"

    def __init__(self):
        self.next_latency = 10.0

    def sample(self, sender, recipient):
        value = self.next_latency
        self.next_latency = max(value - 4.0, 0.0)
        return value


class TestKernelOrdering:
    def _message(self, sender, recipient, tag):
        return PublicationMessage(
            sender=sender,
            recipient=recipient,
            publication=None,
            origin=tag,
        )

    def test_per_link_fifo_never_reorders(self):
        kernel = EventKernel(_ShrinkingLatency())
        for index in range(4):
            kernel.schedule(self._message("A", "B", f"m{index}"))
        order = [message.origin for message in kernel.drain()]
        assert order == ["m0", "m1", "m2", "m3"]
        # Delivery times were clamped to the link clock, not reordered.

    def test_independent_links_may_interleave(self):
        kernel = EventKernel(_ShrinkingLatency())
        kernel.schedule(self._message("A", "B", "slow"))   # latency 10
        kernel.schedule(self._message("A", "C", "fast"))   # latency 6
        order = [message.origin for message in kernel.drain()]
        assert order == ["fast", "slow"]

    def test_zero_model_is_global_fifo(self):
        kernel = EventKernel(ZeroLatency())
        for index in range(5):
            kernel.schedule(self._message("A", "B", f"m{index}"))
        assert [m.origin for m in kernel.drain()] == [f"m{index}" for index in range(5)]

    def test_queue_depth_high_water_tracked(self):
        kernel = EventKernel(ZeroLatency())
        for index in range(7):
            kernel.schedule(self._message("A", "B", f"m{index}"))
        assert kernel.queue_depth_high_water == 7
        list(kernel.drain())
        assert kernel.pending == 0

    def test_stale_sent_at_never_rewinds_the_clock(self):
        """A hop stamped before the clock last advanced is delivered from
        the current virtual time, never in the past."""
        kernel = EventKernel(FixedLatency(0.1))
        late = self._message("A", "C", "late")
        late.sent_at = 10.0
        kernel.schedule(late)
        list(kernel.drain())
        assert kernel.now == pytest.approx(10.1)
        stale = self._message("A", "B", "stale")
        assert stale.sent_at < kernel.now
        kernel.schedule(stale)
        assert stale.delivered_at == pytest.approx(10.2)
        list(kernel.drain())
        assert kernel.now == pytest.approx(10.2)


class TestPublicationHops:
    def test_unbatched_network_is_unchanged(self, schema):
        """A burst crossing one link costs one hop per publication."""
        network = make_network(size=2)
        network.subscribe("sub", whole_space(schema))
        burst = [
            Publication.from_values(
                schema, {"x1": 1, "x2": 1}, publication_id=f"p{index}"
            )
            for index in range(6)
        ]
        delivered = network.publish_many([("pub", p) for p in burst])
        assert len(delivered) == 6
        assert network.metrics.publication_messages == 6


class TestLatencyMetrics:
    def test_latency_stats_only_reported_for_timed_models(self, schema):
        timed = make_network(latency_model="fixed:0.5")
        untimed = make_network()
        for network in (timed, untimed):
            network.subscribe("sub", whole_space(schema))
            network.publish(
                "pub", Publication.from_values(schema, {"x1": 1, "x2": 1})
            )
        assert "delivery_latency_p50" in timed.metrics.summary()
        assert "queue_depth_high_water" in timed.metrics.summary()
        assert "delivery_latency_p50" not in untimed.metrics.summary()
        assert "queue_depth_high_water" not in untimed.metrics.summary()

    def test_phase_diff_reports_interval_percentiles(self, schema):
        network = make_network(latency_model="fixed:0.25")
        network.subscribe("sub", whole_space(schema))
        network.publish("pub", Publication.from_values(schema, {"x1": 1, "x2": 1}))
        snapshot = network.mark_phase("late")
        network.publish("pub", Publication.from_values(schema, {"x1": 2, "x2": 2}))
        delta = network.metrics.diff(snapshot)
        assert delta["notifications"] == 1
        assert delta["delivery_latency_p50"] == pytest.approx(0.5)
        assert delta["queue_depth_high_water"] >= 1

    def test_queue_high_water_is_per_phase_not_lifetime(self, schema):
        """A quiet phase must not inherit the busy phase's high-water mark."""
        network = make_network(latency_model="fixed:0.25")
        network.mark_phase("busy")
        network.subscribe("sub", whole_space(schema))
        for index in range(5):
            network.publish(
                "pub",
                Publication.from_values(
                    schema, {"x1": index, "x2": index}, publication_id=f"p{index}"
                ),
            )
        busy_mark = network.metrics.phase_queue_depth_high_water
        assert busy_mark >= 1
        quiet_snapshot = network.mark_phase("quiet")
        delta = network.metrics.diff(quiet_snapshot)
        assert delta["queue_depth_high_water"] == 0
        # The lifetime mark in the summary still remembers the busy phase.
        assert network.metrics.summary()["queue_depth_high_water"] >= busy_mark

    def test_histogram_covers_all_deliveries(self, schema):
        network = make_network(latency_model="lognormal:0.0,0.5")
        network.subscribe("sub", whole_space(schema))
        for index in range(20):
            network.publish(
                "pub",
                Publication.from_values(
                    schema, {"x1": index, "x2": index}, publication_id=f"p{index}"
                ),
            )
        counts, edges = network.metrics.latency_histogram(bins=8)
        assert counts.sum() == len(network.metrics.delivery_latencies) == 20
        assert len(edges) == 9

    def test_zero_model_phase_metrics_keep_historical_keys(self, schema):
        """Latency keys must not leak into untimed runs (replay stability)."""
        network = make_network()
        snapshot = network.mark_phase("all")
        network.subscribe("sub", whole_space(schema))
        network.publish("pub", Publication.from_values(schema, {"x1": 1, "x2": 1}))
        delta = network.metrics.diff(snapshot)
        assert set(delta) == {
            "subscription_messages",
            "unsubscription_messages",
            "publication_messages",
            "notifications",
            "expected_notifications",
            "suppressed_subscriptions",
            "subsumption_checks",
            "rspc_iterations",
            "missed_notifications",
            "delivery_ratio",
        }


class TestScenarioThreading:
    def test_spec_validates_and_serializes_latency_model(self):
        spec = get_scenario("t0-smoke")
        assert spec.latency_model == "zero"
        assert "latency_model" not in spec.to_dict()
        timed = dataclasses.replace(spec, latency_model="fixed:0.1")
        assert timed.to_dict()["latency_model"] == "fixed:0.1"
        round_tripped = ScenarioSpec.from_dict(timed.to_dict())
        assert round_tripped.latency_model == "fixed:0.1"
        with pytest.raises(ValueError):
            dataclasses.replace(spec, latency_model="warp")

    def test_non_default_model_changes_the_trace_hash(self):
        spec = get_scenario("t0-smoke")
        timed = dataclasses.replace(spec, latency_model="fixed:0.1")
        assert (
            compile_scenario(spec, 7).trace_hash()
            != compile_scenario(timed, 7).trace_hash()
        )

    def test_timed_run_replays_identically(self, tmp_path):
        spec = dataclasses.replace(
            get_scenario("t0-smoke"), latency_model="lognormal:0.0,0.5"
        )
        compiled = compile_scenario(spec, seed=9)
        report = ScenarioRunner(spec, seed=9).run(compiled)
        assert report.latency_model == "lognormal:0.0,0.5"
        burst = next(p for p in report.phases if p.name == "burst")
        assert "delivery_latency_p50" in burst.metrics

        path = tmp_path / "timed.jsonl"
        write_trace(path, compiled, backend="network")
        loaded = read_trace(path)
        assert loaded.spec.latency_model == "lognormal:0.0,0.5"
        assert loaded.recorded_latency_model == "lognormal:0.0,0.5"
        replay = ScenarioRunner().run(loaded)
        assert replay.phase_metrics() == report.phase_metrics()

    def test_t0_latency_scenario_is_registered_and_timed(self):
        spec = get_scenario("t0-latency")
        assert spec.latency_model == "fixed:0.1"
        report = ScenarioRunner(spec, seed=7).run()
        assert report.latency_model == "fixed:0.1"
        assert "delivery_latency_p50" in report.totals

    def test_cli_latency_model_round_trip(self, tmp_path, capsys):
        trace_path = tmp_path / "cli.jsonl"
        assert cli_main([
            "run", "t0-smoke", "--seed", "5",
            "--latency-model", "fixed:0.2",
            "--trace", str(trace_path), "--json",
        ]) == 0
        run_report = json.loads(capsys.readouterr().out)
        assert run_report["latency_model"] == "fixed:0.2"
        assert "delivery_latency_p50" in run_report["totals"]

        assert cli_main(["replay", str(trace_path), "--json"]) == 0
        replay_report = json.loads(capsys.readouterr().out)
        assert replay_report["latency_model"] == "fixed:0.2"

        def metric_view(report):
            return [
                {key: value for key, value in phase.items() if key != "wall_time"}
                for phase in report["phases"]
            ]

        assert metric_view(replay_report) == metric_view(run_report)

    def test_cli_rejects_bad_latency_model(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "t0-smoke", "--latency-model", "warp"])

    @pytest.mark.parametrize("bad", ["fixed:nan", "fixed:inf", "lognormal:0,nan"])
    def test_non_finite_latency_model_rejected_before_a_run(self, bad, capsys):
        spec = get_scenario("t0-smoke")
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(spec, latency_model=bad)
        with pytest.raises(ValueError, match="finite"):
            ScenarioRunner(spec, seed=7, latency_model=bad)
        with pytest.raises(SystemExit) as exited:
            cli_main(["run", "t0-smoke", "--seed", "7", "--latency-model", bad])
        assert exited.value.code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["fixed:1e308", "lognormal:1000,0"])
    def test_finite_parameters_that_overflow_the_clock_fail_the_run(
        self, model, capsys, tmp_path
    ):
        # Finite parameters can still drive the virtual clock to inf, and
        # every later latency would be inf - inf: a NaN report.
        spec = get_scenario("t0-smoke")
        with pytest.raises(OverflowError, match=model.split(":")[0]):
            ScenarioRunner(spec, seed=7, latency_model=model).run()
        assert cli_main(["run", "t0-smoke", "--seed", "7", "--latency-model", model]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the virtual clock overflowed")
        assert "NaN" not in captured.out
        trace_path = tmp_path / "t0.jsonl"
        assert cli_main(["run", "t0-smoke", "--seed", "7", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert cli_main(["replay", str(trace_path), "--latency-model", model]) == 2
        assert "overflowed" in capsys.readouterr().err

    def test_a_large_finite_clock_still_reports(self, capsys):
        assert cli_main(
            ["run", "t0-smoke", "--seed", "7", "--latency-model", "fixed:1e306", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["delivery_latency_max"] > 0
