"""The measuring protocol: inputs, passes, units, checks, metrics.

A run generates ``INPUTS`` different inputs, each from its own sub-seed,
and replays all of them once per *pass*.  A replay is timed in *units* —
the phases of a scenario, the single ``check`` calls of a checker pool —
and **an input's time is the sum over its units of the fastest time any
pass took for that unit**.  The VM this was recorded on slows a one-second
replay by 10-80 % at random and never speeds it up, so the minimum over
passes is the estimate that repeats; different seeds differ by a further
8-13 % in cost per event, which is why five inputs are aggregated rather
than one repeated (``bench/README.md`` has the measurements).

End-to-end numbers come from untraced replays through the program's
public entry points; per-layer numbers from traced replays of the same
inputs (``bench/layers.py``).
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.broker.network import BrokerNetwork
from repro.core.arena import CandidateSet
from repro.core.subsumption import SubsumptionChecker
from repro.model.schema import Schema
from repro.obs import probes as obs_probes
from repro.obs.probes import ObsProbe
from repro.scenarios.events import CompiledScenario, compile_scenario, derive_streams
from repro.scenarios.runner import ScenarioRunner
from repro.utils.rng import ensure_rng
from repro.workloads.scenarios import ScenarioName, generate_scenario

import layers
import metrics as metric_tables
from engine_replay import (
    count_wrong_matches,
    delivery_digest,
    drive_engine,
    make_engine,
    suppressed_fraction,
)
from workloads import SEED_STRIDE, WORKLOADS, CheckerWorkload, ScenarioWorkload

#: different inputs (sub-seeds) one run measures
INPUTS = 5

#: fewest passes a timed run reports on, however short ``--seconds`` is
MIN_PASSES = 2

#: set-up is timed again in each of the first passes of an untraced run
#: (a single sample reads up to 80 % high), then left alone
SETUP_PASSES = 3

CONTROL_KINDS = ("subscribe_ramp", "unsubscribe_storm")
PUBLISH_KINDS = ("publish_burst",)

#: the premise each workload rests on, asserted from the traced replays:
#: share of the named stages in the instrumented time, and its limit
DECISION_PATH = ("broker.decision", "core.")
DOMINANCE = {
    "churn-overlay": (DECISION_PATH, ">=", 0.80),
    "burst-overlay": (DECISION_PATH, "<=", 0.20),
    "cycle-engine": (("engine.subscribe", "engine.unsubscribe", "core."), ">=", 0.80),
    "checker-families": (("core.",), ">=", 0.95),
}


class CheckFailed(Exception):
    """An output check failed: the run reports no result."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# The machine's speed while the run lasted
# ----------------------------------------------------------------------
# The recording VM changes speed by up to 1.8x for minutes at a time, so
# a wall-clock second is not a fixed amount of work.  Every replay is
# therefore followed by a calibration kernel (interpreter and small-array
# NumPy work, like the program's) that is treated exactly like one more
# unit of the input: its time is the fastest any pass saw.  The run's
# machine factor is the sum of those over CALIBRATION_NOMINAL_S per input,
# and times are reported on the clock of a machine whose factor is 1 —
# the recording box at its best.  The kernel lasts about as long as a
# unit does: a 10 ms kernel finds a fast moment in any three tries even
# while every 100 ms stretch of work runs a fifth slower.
CALIBRATION_NOMINAL_S = 0.084

_CALIBRATION_ROWS = np.random.default_rng(0).integers(0, 10_000, (64, 8)).astype(float)
_CALIBRATION_POINT = _CALIBRATION_ROWS.mean(axis=0)


def calibration_kernel() -> float:
    """Seconds this machine takes, right now, for a fixed piece of work."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    rows, point = _CALIBRATION_ROWS, _CALIBRATION_POINT
    for _ in range(10):
        for index in range(24000):
            key = (index * 7919) % 1013
            table[key] = table.get(key, 0) + index
        for _ in range(640):
            inside = ((rows <= point) & (point <= rows + 2500.0)).all(axis=1)
            np.argsort(rows[:, 0], kind="stable")
            int(inside.sum())
    return time.perf_counter() - started


def machine_factor(inputs: List[Dict[str, Any]]) -> float:
    """How much slower than the recording box at its best this run ran."""
    best = sum(min(prepared["calibration"]) for prepared in inputs)
    return best / (len(inputs) * CALIBRATION_NOMINAL_S)


# ----------------------------------------------------------------------
# Scenario workloads
# ----------------------------------------------------------------------
def construct_backend(workload: ScenarioWorkload, compiled: CompiledScenario) -> float:
    """Seconds to build the backend a replay starts from (then torn down)."""
    spec = compiled.spec
    started = time.perf_counter()
    if workload.backend == "network":
        backend = BrokerNetwork(
            compiled.edges,
            policy=spec.policy,
            delta=spec.delta,
            max_iterations=spec.max_iterations,
            rng=ensure_rng(derive_streams(compiled.seed)["network"]),
            matcher_backend=spec.engine_backend,
            latency_model=spec.latency_model,
            merge_budget=spec.merge_budget,
        )
        for client, broker in compiled.clients.items():
            backend.attach_client(client, broker)
    else:
        backend = make_engine(compiled, workload.shards)
    elapsed = time.perf_counter() - started
    if workload.backend == "network" or workload.shards:
        backend.close()
    return elapsed


def prepare_scenario(
    workload: ScenarioWorkload, sub_seed: int, scale: float
) -> Dict[str, Any]:
    """Set-up of one scenario input: compile it, build its backend once."""
    started = time.perf_counter()
    compiled = compile_scenario(workload.spec(scale), sub_seed)
    compile_s = time.perf_counter() - started
    construct_s = construct_backend(workload, compiled)
    return {
        "sub_seed": sub_seed,
        "compiled": compiled,
        "trace_hash": compiled.trace_hash(),
        "events": compiled.event_count,
        "setup_s": compile_s + construct_s,
        "compile_s": compile_s,
        "construct_s": construct_s,
    }


def replay_scenario(
    workload: ScenarioWorkload, prepared: Dict[str, Any], trace: bool
) -> Dict[str, Any]:
    """One replay: untraced through ``ScenarioRunner.run``, or traced."""
    compiled = prepared["compiled"]
    if trace:
        return traced_scenario_replay(workload, compiled)
    report = ScenarioRunner(backend=workload.backend, shards=workload.shards).run(
        compiled
    )
    replay: Dict[str, Any] = {
        "wall": report.wall_time,
        "units": [phase.wall_time for phase in report.phases],
        "unit_kinds": [phase.kind for phase in report.phases],
        "unit_events": [phase.events for phase in report.phases],
        "totals": dict(report.totals),
    }
    if workload.backend == "network":
        totals = report.totals
        require(
            totals["notifications"] + totals["missed_notifications"]
            == totals["expected_notifications"],
            "overlay: notifications + missed != expected",
        )
        replay["attempted"] = int(totals["expected_notifications"])
        replay["failed"] = int(totals["missed_notifications"])
    return replay


def traced_scenario_replay(
    workload: ScenarioWorkload, compiled: CompiledScenario
) -> Dict[str, Any]:
    """Replay the input's events under the probe and the core wrappers."""
    probe = ObsProbe()
    counts: Counter = Counter()
    with layers.core_wrappers(counts):
        if workload.backend == "network":
            report = ScenarioRunner(backend="network", obs=probe).run(compiled)
            return {
                "wall": report.wall_time,
                "totals": dict(report.totals),
                "probe": probe,
                "counts": counts,
            }
        outcome = drive_engine(compiled, workload.shards, probe)
    outcome["attempted"], outcome["failed"] = count_wrong_matches(
        compiled, outcome["results"]
    )
    outcome["digest"] = delivery_digest(compiled, outcome.pop("results"))
    outcome["control_wall"] = sum(
        outcome["phase_walls"].get(phase.name, 0.0)
        for phase in compiled.spec.phases
        if phase.kind.value in CONTROL_KINDS
    )
    outcome["probe"] = probe
    outcome["counts"] = counts
    return outcome


def sharding_cost(compiled: CompiledScenario, unsharded: Dict[str, Any]) -> float:
    """Covering lost to partitioning, on identical events (ROADMAP 4a).

    Replays the events once more through two shard workers; the same
    subscribers must be notified of every publication, and the difference
    of the two suppressed fractions is what sharding cost.
    """
    sharded = drive_engine(compiled, shards=2)
    require(
        delivery_digest(compiled, sharded["results"]) == unsharded["digest"],
        "shards=2 delivers differently from shards=0 on identical events",
    )
    return suppressed_fraction(unsharded["store"]) - suppressed_fraction(
        sharded["store"]
    )


# ----------------------------------------------------------------------
# The checker workload
# ----------------------------------------------------------------------
def prepare_checker(
    workload: CheckerWorkload, sub_seed: int, scale: float
) -> Dict[str, Any]:
    """Set-up of one checker input: a pool of instances of every family."""
    k = max(8, int(round(workload.k * scale)))
    schema = Schema.uniform_integer(workload.m, 0, workload.domain_size)
    rng = np.random.default_rng(sub_seed)
    started = time.perf_counter()
    pool = []
    for family in ScenarioName:
        extra = (
            {"gap_fraction": workload.gap_fraction}
            if family is ScenarioName.EXTREME_NON_COVER
            else {}
        )
        for _ in range(workload.instances):
            pool.append(
                (family.value, generate_scenario(family, schema, k, rng=rng, **extra))
            )
    # Candidate snapshots are set-up too (they are built again, untimed,
    # before every replay so that the verdict cache never hits).
    for _, instance in pool:
        CandidateSet(instance.candidates)
    return {
        "sub_seed": sub_seed,
        "pool": pool,
        "trace_hash": None,
        "events": len(pool),
        "setup_s": time.perf_counter() - started,
    }


def replay_checker(
    workload: CheckerWorkload, prepared: Dict[str, Any], trace: bool
) -> Dict[str, Any]:
    """One pass over the pool, every ``check`` call timed on its own.

    A fresh checker seeded from the sub-seed and fresh candidate snapshots
    per pass: every pass does identical work, and no verdict is cached.
    """
    pool = prepared["pool"]
    checker = SubsumptionChecker(
        delta=workload.delta,
        max_iterations=workload.max_iterations,
        rng=prepared["sub_seed"],
    )
    snapshots = [CandidateSet(instance.candidates) for _, instance in pool]
    probe = ObsProbe() if trace else None
    counts: Counter = Counter()
    units: List[float] = []
    totals: Counter = Counter()
    with contextlib.ExitStack() as tracing:
        if trace:
            tracing.enter_context(layers.core_wrappers(counts))
            tracing.enter_context(obs_probes.enabled(probe))
        for (family, instance), snapshot in zip(pool, snapshots):
            started = time.perf_counter()
            result = checker.check(instance.subscription, snapshot)
            units.append(time.perf_counter() - started)
            totals["covered"] += result.covered
            totals["rspc_iterations"] += result.iterations_performed
            if result.covered != instance.expected_covered:
                # One-sided error: "not covered" always has a witness.
                require(result.covered, f'false "not covered" on a {family} instance')
                totals["wrong"] += 1
    return {
        "wall": sum(units),
        "units": units,
        "unit_kinds": [family for family, _ in pool],
        "unit_events": [1] * len(pool),
        "totals": dict(totals),
        "attempted": len(pool),
        "failed": totals["wrong"],
        "probe": probe,
        "counts": counts,
    }


# ----------------------------------------------------------------------
# One workload, one run
# ----------------------------------------------------------------------
def available_cores() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, MiB."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return usage / 1024.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    passes: Optional[int] = None,
) -> Dict[str, Any]:
    """Measure one workload; returns the run's full record.

    Input ``i`` is generated from sub-seed ``seed * SEED_STRIDE + i``.
    Passes over the inputs repeat until ``seconds`` have gone by (at least
    ``MIN_PASSES``, one when tracing), or exactly ``passes`` times.  A
    traced run replays every input twice per pass, untraced then traced.
    """
    workload = WORKLOADS[name]
    if isinstance(workload, CheckerWorkload):
        prepare, replay = prepare_checker, replay_checker
    else:
        prepare, replay = prepare_scenario, replay_scenario
    started = time.perf_counter()
    inputs = []
    for index in range(INPUTS):
        prepared = prepare(workload, seed * SEED_STRIDE + index, scale)
        prepared.update(
            untraced=[], traced=[], setups=[prepared["setup_s"]], calibration=[]
        )
        inputs.append(prepared)

    def another_pass() -> bool:
        if passes is not None:
            return done < passes
        fewest = 1 if trace else MIN_PASSES
        return done < fewest or time.perf_counter() - started < seconds

    done = 0
    while another_pass():
        for prepared in inputs:
            if not trace and 0 < done < SETUP_PASSES:
                again = prepare(workload, prepared["sub_seed"], scale)
                require(
                    again["trace_hash"] == prepared["trace_hash"],
                    "compiled.trace_hash() differs between two compilations",
                )
                prepared["setups"].append(again["setup_s"])
            prepared["untraced"].append(replay(workload, prepared, False))
            prepared["calibration"].append(calibration_kernel())
            if trace:
                prepared["traced"].append(replay(workload, prepared, True))
        done += 1
    factor = machine_factor(inputs)

    for prepared in inputs:
        replays = prepared["untraced"] + prepared["traced"]
        require(
            all(other["totals"] == replays[0]["totals"] for other in replays),
            "an exact count differs between two replays of one input (for an "
            "engine: between the benchmark's driver and ScenarioReport.totals)",
        )
    attempted, failed = count_failures(workload, inputs, trace)

    values = end_to_end_metrics(workload, inputs, factor)
    values["failed_fraction"] = (failed / attempted, [])
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "passes": done,
        "sub_seeds": [p["sub_seed"] for p in inputs],
        "events_per_input": [p["events"] for p in inputs],
        "trace_hashes": [p["trace_hash"] for p in inputs],
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "machine_factor": factor,
    }
    if trace:
        layer_values, result["checks"] = per_layer_metrics(
            workload, inputs, values, factor
        )
        values.update(layer_values)
    result["metrics"] = {
        metric: {
            "value": value,
            "unit": metric_tables.UNITS[metric],
            **({"samples": samples} if samples else {}),
        }
        for metric, (value, samples) in values.items()
    }
    return result


def count_failures(workload, inputs: List[Dict[str, Any]], trace: bool) -> Tuple[int, int]:
    """``(attempted, failed)`` operations of the run.

    Overlays count expected and missed notifications, the checker its
    verdicts; every replay of an input fails alike, so the first stands
    for all.  An engine's matches are only visible to the benchmark's own
    driver: every input when tracing, input 0 (one extra, untimed replay)
    otherwise.
    """
    if isinstance(workload, ScenarioWorkload) and workload.backend == "engine":
        if trace:
            checked = [prepared["traced"][0] for prepared in inputs]
        else:
            first = inputs[0]
            outcome = drive_engine(first["compiled"], workload.shards)
            require(
                outcome["totals"] == first["untraced"][0]["totals"],
                "engine: the benchmark's driver and ScenarioReport.totals differ",
            )
            outcome["attempted"], outcome["failed"] = count_wrong_matches(
                first["compiled"], outcome["results"]
            )
            checked = [outcome]
    else:
        checked = [prepared["untraced"][0] for prepared in inputs]
    return (
        sum(replay["attempted"] for replay in checked),
        sum(replay["failed"] for replay in checked),
    )


Values = Dict[str, Tuple[float, List[float]]]


def end_to_end_metrics(
    workload, inputs: List[Dict[str, Any]], factor: float
) -> Values:
    """End-to-end metrics from the untraced replays.

    A rate is the events of all inputs over the sum of their best times;
    per-input values ride along as ``samples`` for ``compare.py``.  Times
    are on the calibrated clock (divided by the machine ``factor``).
    """
    def rate(kinds: Optional[Tuple[str, ...]]) -> Tuple[float, List[float]]:
        pairs = []
        for prepared in inputs:
            replays = prepared["untraced"]
            best = [min(column) for column in zip(*(r["units"] for r in replays))]
            chosen = [
                index
                for index, kind in enumerate(replays[0]["unit_kinds"])
                if kinds is None or kind in kinds
            ]
            pairs.append(
                (
                    sum(replays[0]["unit_events"][index] for index in chosen),
                    sum(best[index] for index in chosen),
                )
            )
        return (
            sum(n for n, _ in pairs) / sum(s for _, s in pairs) * factor,
            [n / s * factor for n, s in pairs],
        )

    setups = [min(prepared["setups"]) / factor for prepared in inputs]
    values: Values = {
        "setup_s": (statistics.median(setups), setups),
        "events_per_s": rate(None),
        "peak_rss_mb": (peak_rss_mb(), []),
    }
    if isinstance(workload, CheckerWorkload):
        values["checks_per_s"] = values["events_per_s"]
        per_input = [
            [d for replay in prepared["untraced"] for d in replay["units"]]
            for prepared in inputs
        ]
        microseconds = 1e6 / factor
        for metric, q in (("check_p50_us", 50), ("check_p99_us", 99)):
            values[metric] = (
                percentile([d for durations in per_input for d in durations], q)
                * microseconds,
                [percentile(durations, q) * microseconds for durations in per_input],
            )
        return values
    if "control_events_per_s" in workload.phase_metrics:
        values["control_events_per_s"] = rate(CONTROL_KINDS)
    if "publish_events_per_s" in workload.phase_metrics:
        values["publish_events_per_s"] = rate(PUBLISH_KINDS)
    if workload.backend == "network":
        totals = [prepared["untraced"][0]["totals"] for prepared in inputs]
        values["suppressed_fraction"] = (
            sum(t["suppressed_subscriptions"] for t in totals)
            / sum(t["subsumption_checks"] for t in totals),
            [],
        )
    return values


def per_layer_metrics(
    workload, inputs: List[Dict[str, Any]], end_to_end: Values, factor: float
) -> Tuple[Values, Dict[str, Any]]:
    """Everything ``--trace 1`` reports, and the layer-dominance check.

    Per input the fastest traced replay stands for the input (every
    replay of an input counts alike); times and counts are means per
    input, times on the calibrated clock.  A metric that does not exist
    on this workload reads 0.
    """
    count = len(inputs)
    traced = [min(p["traced"], key=lambda replay: replay["wall"]) for p in inputs]
    probes = [t["probe"] for t in traced]
    out: Dict[str, float] = {name: 0.0 for name, _, _ in metric_tables.PER_LAYER}
    out.update(layers.stage_metrics(probes))

    counts: Counter = Counter()
    for t in traced:
        counts.update(t["counts"])
    for key, total in counts.items():
        out[key] = total / count
    lookups = counts["checker.cache_hits"] + counts["checker.cache_misses"]
    if lookups:
        out["checker.cache_hit_ratio"] = counts["checker.cache_hits"] / lookups

    traced_wall = sum(t["wall"] for t in traced)
    untraced_wall = sum(min(r["wall"] for r in p["untraced"]) for p in inputs)
    staged = layers.staged_seconds(probes, ("",))
    out["trace.overhead_fraction"] = traced_wall / untraced_wall - 1.0
    out["trace.unattributed_fraction"] = 1.0 - staged / traced_wall
    out["calibration.machine_factor"] = factor

    dominance_base = staged
    if isinstance(workload, CheckerWorkload):
        by_family: Dict[str, List[float]] = {}
        for prepared in inputs:
            for replay in prepared["untraced"]:
                for family, duration in zip(replay["unit_kinds"], replay["units"]):
                    by_family.setdefault(family, []).append(duration)
        for family, durations in by_family.items():
            out["checker.check_p50_us." + family] = percentile(durations, 50) * 1e6
        dominance_base = traced_wall
    else:
        events = sum(p["events"] for p in inputs)
        compile_s = sum(p["compile_s"] for p in inputs)
        out["scenarios.compile_s"] = compile_s / count
        out["scenarios.compile_events"] = events / count
        out["scenarios.compile_us_per_event"] = compile_s / events * 1e6
        if workload.backend == "network":
            network_layer(out, inputs)
        else:
            engine_layer(out, workload, inputs, traced)
            dominance_base = sum(t["control_wall"] for t in traced)

    checks: Dict[str, Any] = {
        "trace_reliable": out["trace.overhead_fraction"] <= 0.25
    }
    if workload.name in DOMINANCE:
        prefixes, relation, limit = DOMINANCE[workload.name]
        share = layers.staged_seconds(probes, prefixes) / dominance_base
        out["dominance.share"] = share
        checks["dominance"] = {
            "stages": list(prefixes),
            "share": share,
            "relation": relation,
            "limit": limit,
            "holds": share >= limit if relation == ">=" else share <= limit,
        }

    for name, unit, _ in metric_tables.PER_LAYER:
        if unit in ("s", "us"):
            out[name] /= factor
    values: Values = {name: (value, []) for name, value in out.items()}
    # the end-to-end metrics that exist on some workloads only are listed
    # as per-layer in BENCHMARK.json: carry them over with their samples
    values.update({name: v for name, v in end_to_end.items() if name in out})
    return values, checks


def network_layer(out: Dict[str, float], inputs: List[Dict[str, Any]]) -> None:
    count = len(inputs)
    totals: Counter = Counter()
    for prepared in inputs:
        totals.update(prepared["untraced"][0]["totals"])
    for key in (
        "subscription_messages",
        "unsubscription_messages",
        "publication_messages",
        "notifications",
        "missed_notifications",
        "suppressed_subscriptions",
        "subsumption_checks",
        "rspc_iterations",
    ):
        out["net." + key] = totals[key] / count
    subscribes = sum(
        1
        for prepared in inputs
        for event in prepared["compiled"].events
        if event.subscription is not None
    )
    out["net.sub_msgs_per_subscribe"] = totals["subscription_messages"] / subscribes
    out["net.rspc_iterations_per_check"] = (
        totals["rspc_iterations"] / totals["subsumption_checks"]
    )


def engine_layer(
    out: Dict[str, float],
    workload: ScenarioWorkload,
    inputs: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
) -> None:
    count = len(inputs)
    store: Counter = Counter()
    for t in traced:
        store.update(t["store"])
    for key in ("added", "forwarded", "suppressed", "demoted", "promoted", "rspc_iterations"):
        out["store." + key] = store[key] / count
    out["arena.compactions"] = sum(t["arena"]["compactions"] for t in traced) / count
    out["arena.moved_rows"] = sum(t["arena"]["moved_rows"] for t in traced) / count
    for key in ("active_tests", "covered_tests", "notifications"):
        out["engine." + key] = sum(t["totals"][key] for t in traced) / count
    out["suppressed_fraction"] = suppressed_fraction(store)

    if workload.shards:
        busy = [sum(column) for column in zip(*(t["busy"] for t in traced))]
        live = [sum(column) for column in zip(*(t["shard_subscriptions"] for t in traced))]
        out["shard.spawn_s"] = sum(p["construct_s"] for p in inputs) / count
        out["shard.busy_s_sum"] = sum(busy) / count
        out["shard.busy_s_max"] = max(busy) / count
        out["shard.busy_skew"] = max(busy) / statistics.mean(busy)
        out["shard.subscriptions_skew"] = max(live) / statistics.mean(live)
        if available_cores() >= 2:
            # 0 stands for "not measured": one core cannot run two workers
            out["shard.parallel_efficiency"] = sum(busy) / (
                len(busy) * sum(t["wall"] for t in traced)
            )
    else:
        out["shard.suppressed_loss"] = sharding_cost(inputs[0]["compiled"], traced[0])
