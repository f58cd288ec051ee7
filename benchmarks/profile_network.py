#!/usr/bin/env python
"""Per-stage profiling of the network-vs-engine throughput gap.

``BENCH_5.json`` records the gap this harness explains: the network
backend runs ``t2-burst`` at roughly 1/6th of the engine backend's
event rate.  This script runs the same compiled scenario on both
backends with an :class:`~repro.obs.probes.ObsProbe` attached, collects
the wall-clock *self-time* of every instrumented stage (nested stages
subtract their children, so the totals add up), and attributes the
wall-clock gap to the stages only the network backend executes —
ranked, printed as a table and written to ``BENCH_7.json`` with the
top-3 named explicitly.

Usage::

    PYTHONPATH=src python benchmarks/profile_network.py            # t2-burst
    PYTHONPATH=src python benchmarks/profile_network.py --quick    # t0-smoke CI smoke
    PYTHONPATH=src python benchmarks/profile_network.py --artifacts DIR

``--quick`` profiles the small ``t0-smoke`` scenario instead and skips
the BENCH file (CI uses it as a smoke check).  In every mode the
harness also runs one span-enabled pass, asserts the span JSONL export
round-trips losslessly, and (with ``--artifacts``) leaves the span file
and its rendered report behind for artifact upload.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.probes import ObsProbe
from repro.obs.report import render_report, summarize
from repro.obs.spans import SpanRecorder, read_spans, write_spans
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.events import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.utils.provenance import provenance
from repro.utils.tables import render_table

#: stages that exist only on the network backend; their summed self-time
#: is the instrumented explanation of the network-vs-engine gap
#: (``shard.`` covers the sharded oracle's dispatch/collect phases)
_NETWORK_STAGE_PREFIXES = ("network.", "broker.", "kernel.", "shard.")


def profile_backend(
    scenario: str, seed: int, backend: str, shards: int = 0
) -> Tuple[Any, ObsProbe]:
    """One probe-attached run; returns (report, probe with stage totals)."""
    spec = get_scenario(scenario)
    compiled = compile_scenario(spec, seed)
    probe = ObsProbe()  # registry + stage timers, no span churn
    runner = ScenarioRunner(
        spec, seed=seed, backend=backend, obs=probe, shards=shards
    )
    report = runner.run(compiled)
    probe.flush_stages_to_registry()
    return report, probe


def span_roundtrip_check(
    scenario: str, seed: int, artifacts: Optional[Path]
) -> Dict[str, Any]:
    """Span-enabled run; asserts the JSONL export round-trips losslessly."""
    spec = get_scenario(scenario)
    compiled = compile_scenario(spec, seed)
    recorder = SpanRecorder()
    probe = ObsProbe(spans=recorder)
    ScenarioRunner(spec, seed=seed, backend="network", obs=probe).run(compiled)

    out_dir = artifacts if artifacts is not None else Path("/tmp")
    out_dir.mkdir(parents=True, exist_ok=True)
    span_path = out_dir / f"{scenario}-spans.jsonl"
    written = write_spans(span_path, recorder)
    loaded = read_spans(span_path)
    assert written == len(recorder.spans), "span count drifted on export"
    assert [s.to_dict() for s in loaded.spans] == [
        s.to_dict() for s in recorder.spans
    ], "span JSONL export does not round-trip"
    assert loaded.queue_samples == [
        (float(t), link, depth) for t, link, depth in recorder.queue_samples
    ], "queue samples do not round-trip"

    summary = summarize(loaded)
    if artifacts is not None:
        (out_dir / f"{scenario}-spans.report.txt").write_text(
            render_report(loaded) + "\n"
        )
    else:
        span_path.unlink(missing_ok=True)
    return {
        "spans": summary["spans"],
        "traces": summary["traces"],
        "chain_status": summary["chain_status"],
    }


def _stage_rows(probe: ObsProbe) -> List[Dict[str, Any]]:
    return [
        {"stage": stage, "seconds": seconds, "calls": calls}
        for stage, seconds, calls in probe.stage_totals()
    ]


def attribute_gap(
    network_report,
    network_probe: ObsProbe,
    engine_report,
    engine_probe: ObsProbe,
) -> Dict[str, Any]:
    """Explain the wall-clock gap with the instrumented stage self-times.

    The network backend's stages are not pure overhead: route lookups,
    match-and-forward and the oracle redo work the engine backend also
    performs (inside ``engine.match``/``engine.subscribe``/…).  Summing
    the gross network stage time against the *gap* therefore counted
    that shared work twice and produced attribution fractions above
    100%.  Subtracting the engine's instrumented self-time cancels the
    shared work, so ``gap_attributed_seconds`` is the instrumented
    *extra* cost of running the overlay and its fraction of the gap
    stays ≤ 1 (up to scheduler noise in the uninstrumented slack).
    Per-stage shares are reported against the network backend's total
    instrumented time, so they always sum to at most 100%.
    """
    network_only = [
        (stage, seconds, calls)
        for stage, seconds, calls in network_probe.stage_totals()
        if stage.startswith(_NETWORK_STAGE_PREFIXES)
    ]
    network_instrumented = sum(seconds for _, seconds, _ in network_only)
    engine_instrumented = sum(
        seconds for _, seconds, _ in engine_probe.stage_totals()
    )
    # Everything reported is derived from the *rounded* operands, so the
    # published numbers satisfy ``attributed == network - engine`` exactly
    # instead of to within three independent roundings.
    gap = round(network_report.wall_time - engine_report.wall_time, 6)
    network_seconds = round(network_instrumented, 6)
    engine_seconds = round(engine_instrumented, 6)
    attributed = round(max(network_seconds - engine_seconds, 0.0), 6)
    top = [
        {
            "stage": stage,
            "seconds": round(seconds, 6),
            "calls": calls,
            "share_of_network_time": round(seconds / network_instrumented, 4)
            if network_instrumented > 0
            else 0.0,
        }
        for stage, seconds, calls in network_only[:3]
    ]
    return {
        "network_wall_time": round(network_report.wall_time, 6),
        "engine_wall_time": round(engine_report.wall_time, 6),
        "network_events_per_second": round(network_report.events_per_second, 1),
        "engine_events_per_second": round(engine_report.events_per_second, 1),
        "slowdown": round(
            network_report.wall_time / engine_report.wall_time, 2
        )
        if engine_report.wall_time > 0
        else 0.0,
        "wall_gap_seconds": gap,
        "network_instrumented_seconds": network_seconds,
        "engine_instrumented_seconds": engine_seconds,
        "gap_attributed_seconds": attributed,
        "gap_attributed_fraction": round(attributed / gap, 4)
        if gap > 0
        else 0.0,
        "top_costs": top,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Attribute the network-vs-engine throughput gap per stage."
    )
    parser.add_argument(
        "--scenario",
        default="t2-burst",
        help="scenario to profile (default: t2-burst, the BENCH gap case)",
    )
    parser.add_argument("--seed", type=int, default=7, help="run seed")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: profile t0-smoke, skip the BENCH file",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_7.json"),
        metavar="PATH",
        help="machine-readable profile destination (default: BENCH_7.json)",
    )
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="also write the span JSONL and its rendered report here",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="profile with N shard worker processes (0 = single-process); "
             "the coordinator's dispatch/collect show up as shard.* stages",
    )
    arguments = parser.parse_args(argv)

    scenario = "t0-smoke" if arguments.quick else arguments.scenario
    artifacts = Path(arguments.artifacts) if arguments.artifacts else None

    shard_note = f", shards={arguments.shards}" if arguments.shards else ""
    print(
        f"profiling {scenario} (seed {arguments.seed}{shard_note}) "
        "on both backends…"
    )
    engine_report, engine_probe = profile_backend(
        scenario, arguments.seed, "engine", shards=arguments.shards
    )
    network_report, network_probe = profile_backend(
        scenario, arguments.seed, "network", shards=arguments.shards
    )
    if engine_report.trace_hash != network_report.trace_hash:
        raise AssertionError("backends profiled different compiled scenarios")

    gap = attribute_gap(
        network_report, network_probe, engine_report, engine_probe
    )

    print(
        f"\nengine : {engine_report.wall_time * 1000:8.1f} ms "
        f"({engine_report.events_per_second:,.0f} events/s)"
    )
    print(
        f"network: {network_report.wall_time * 1000:8.1f} ms "
        f"({network_report.events_per_second:,.0f} events/s)"
        f" — {gap['slowdown']}x slower"
    )
    print(
        f"gap    : {gap['wall_gap_seconds'] * 1000:8.1f} ms, "
        f"{gap['gap_attributed_fraction'] * 100:.1f}% attributed to "
        f"network-only stages\n"
    )

    rows = []
    instrumented = gap["network_instrumented_seconds"]
    for entry in _stage_rows(network_probe):
        share = entry["seconds"] / instrumented if instrumented > 0 else 0.0
        rows.append(
            [
                entry["stage"],
                f"{entry['seconds'] * 1000:.2f}",
                str(entry["calls"]),
                f"{share * 100:.1f}%",
            ]
        )
    print("network backend, ranked by self-time:")
    print(
        render_table(
            ("stage", "self ms", "calls", "share of net"),
            rows,
            right_align_from=1,
        )
    )

    top_names = ", ".join(cost["stage"] for cost in gap["top_costs"])
    print(f"\ntop-3 costs behind the gap: {top_names}")

    roundtrip = span_roundtrip_check("t0-smoke", arguments.seed, artifacts)
    print(
        f"span export round-trip OK: {roundtrip['spans']} spans / "
        f"{roundtrip['traces']} traces ({roundtrip['chain_status']})"
    )

    if arguments.shards:
        # Sharded profiles are interactive diagnostics; never overwrite
        # the committed single-process baseline the perf gates compare to.
        print("[--shards set: BENCH file not written]")
        return 0
    if not arguments.quick:
        payload = {
            "schema": 1,
            "provenance": provenance(cwd=str(REPO_ROOT)),
            f"profile:{scenario}": {
                "seed": arguments.seed,
                **gap,
                "network_stages": [
                    {**row, "seconds": round(row["seconds"], 6)}
                    for row in _stage_rows(network_probe)
                ],
                "engine_stages": [
                    {**row, "seconds": round(row["seconds"], 6)}
                    for row in _stage_rows(engine_probe)
                ],
                "span_roundtrip": roundtrip,
            },
        }
        Path(arguments.output).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        print(f"profile written to {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
