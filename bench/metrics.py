"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` lists the driver's view: the end-to-end metrics that
exist on *every* workload (``CONTRACT_END_TO_END``) and, as ``per_layer``,
everything else.  ``END_TO_END`` is the benchmark's own, finer table —
which metric applies to which workload and the bound ``compare.py``
enforces — because a phase-class throughput or a check latency only
means something where that phase or that call is what the workload runs.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from repro.workloads.scenarios import ScenarioName

import layers
from workloads import WORKLOADS, ScenarioWorkload

SCENARIOS = tuple(
    name for name, w in WORKLOADS.items() if isinstance(w, ScenarioWorkload)
)
CHECKER = tuple(name for name in WORKLOADS if name not in SCENARIOS)
ALL = SCENARIOS + CHECKER

FAMILIES = tuple(family.value for family in ScenarioName)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: relative share of the baseline median (``absolute`` False) or an
    #: absolute difference (exact-count ratios) by which it may worsen
    bound: float
    absolute: bool
    applies: Tuple[str, ...]


#: Timing bounds are 0.25, not the 0.10 first hoped for: the recording box
#: (2 shared cores) shows an inter-quartile spread of 8 % between
#: back-to-back replays of one compiled scenario, and of 5-8 % between
#: ten run seeds once a run aggregates its rounds (bench/README.md lists
#: the measured spreads).  Exact-count ratios keep absolute bounds.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, False, ALL),
    EndToEnd("events_per_s", "events/s", "higher", 0.25, False, ALL),
    EndToEnd(
        "control_events_per_s", "events/s", "higher", 0.25, False,
        tuple(n for n in SCENARIOS if "control_events_per_s" in WORKLOADS[n].phase_metrics),
    ),
    EndToEnd(
        "publish_events_per_s", "events/s", "higher", 0.25, False,
        tuple(n for n in SCENARIOS if "publish_events_per_s" in WORKLOADS[n].phase_metrics),
    ),
    EndToEnd("checks_per_s", "checks/s", "higher", 0.25, False, CHECKER),
    EndToEnd("check_p50_us", "us", "lower", 0.25, False, CHECKER),
    EndToEnd("check_p99_us", "us", "lower", 0.25, False, CHECKER),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, False, ALL),
    EndToEnd("suppressed_fraction", "ratio", "higher", 0.005, True, SCENARIOS),
    EndToEnd("failed_fraction", "ratio", "lower", 0.0005, True, ALL),
)

#: the end-to-end metrics defined, non-zero and steady on every workload
#: — the only ones the driver's one-bound-per-metric contract can carry
CONTRACT_END_TO_END = ("setup_s", "events_per_s", "peak_rss_mb")


def _per_layer() -> List[Tuple[str, str, str]]:
    # end-to-end metrics that exist on some workloads only (0 elsewhere)
    rows: List[Tuple[str, str, str]] = [
        (m.name, m.unit, m.better)
        for m in END_TO_END
        if m.name not in CONTRACT_END_TO_END
    ]

    def add(names, unit, better="lower"):
        rows.extend((name, unit, better) for name in names)

    add(["scenarios.compile_s"], "s")
    add(["scenarios.compile_events"], "count", "higher")
    add(["scenarios.compile_us_per_event"], "us")
    for stage in layers.STAGES:
        add([stage + "_s"], "s")
        add([stage + "_calls"], "count")
    add(
        [
            "net.subscription_messages",
            "net.unsubscription_messages",
            "net.publication_messages",
            "net.missed_notifications",
            "net.subsumption_checks",
            "net.rspc_iterations",
        ],
        "count",
    )
    add(["net.notifications", "net.suppressed_subscriptions"], "count", "higher")
    add(["net.sub_msgs_per_subscribe", "net.rspc_iterations_per_check"], "ratio")
    add(["checker.cache_hits"], "count", "higher")
    add(["checker.cache_misses"], "count")
    add(["checker.cache_hit_ratio"], "ratio", "higher")
    add(["checker.method." + m for m in layers.CHECKER_METHODS], "count", "higher")
    add(["checker.check_p50_us." + family for family in FAMILIES], "us")
    add(
        ["core.decisions.pairwise_hits", "core.decisions.polyhedron_hits"],
        "count",
        "higher",
    )
    add(["core.mcs.rows_in", "core.mcs.rows_kept"], "count")
    add(
        [
            "core.rspc.iterations",
            "core.rspc.witness_found",
            "core.rspc.exhausted",
            "core.rspc.truncated",
        ],
        "count",
    )
    add(["store.added", "store.forwarded", "store.demoted", "store.promoted"], "count")
    add(["store.suppressed"], "count", "higher")
    add(["store.rspc_iterations", "arena.compactions", "arena.moved_rows"], "count")
    add(["engine.active_tests", "engine.covered_tests"], "count")
    add(["engine.notifications"], "count", "higher")
    add(["shard.spawn_s", "shard.busy_s_sum", "shard.busy_s_max"], "s")
    add(["shard.busy_skew", "shard.subscriptions_skew", "shard.suppressed_loss"], "ratio")
    add(["shard.parallel_efficiency"], "ratio", "higher")
    add(["trace.overhead_fraction", "trace.unattributed_fraction"], "ratio")
    add(["dominance.share"], "ratio", "higher")
    add(["calibration.machine_factor"], "ratio")
    return rows


#: ``(name, unit, better)`` of everything a traced run reports
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _ in PER_LAYER},
    **{m.name: m.unit for m in END_TO_END},
}

#: ratios computed from timings; every other count or ratio is an exact
#: count of the program's behaviour, on which two runs of one commit on
#: one seed must agree to the last digit
_TIMING_RATIOS = (
    "shard.busy_skew",
    "shard.parallel_efficiency",
    "trace.overhead_fraction",
    "trace.unattributed_fraction",
    "dominance.share",
    "calibration.machine_factor",
)
EXACT = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "ratio") and name not in _TIMING_RATIOS
)
