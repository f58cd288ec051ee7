"""Per-layer tracing the benchmark installs from outside.

``repro.obs`` stage timers stop at the broker, the engine and the shard
coordinator; ``repro.core`` has no probes at all (in-program checker
probes are ROADMAP item 2, a later issue).  For a traced round the
benchmark therefore wraps the public ``repro.core`` callables that
:meth:`SubsumptionChecker.check` resolves through its module namespace,
and ``check`` itself.  Every wrapper pushes and pops on the *same*
:class:`~repro.obs.probes.ObsProbe` as the built-in stages, so a child's
time is subtracted from its parent exactly once and the rows of one
round sum to its instrumented wall time.

The wrappers exist only inside :func:`core_wrappers`; untraced rounds run
the unmodified program.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import Counter
from typing import Callable, Dict, Iterator, Optional

from repro.core import subsumption
from repro.core.results import DecisionMethod
from repro.core.rspc import RSPCOutcome
from repro.obs import probes as obs_probes

#: ``repro.core.subsumption`` attribute -> stage name of its wrapper
CORE_STAGES = {
    "ConflictTable": "core.conflict_table.build",
    "detect_pairwise_cover": "core.decisions.pairwise",
    "detect_polyhedron_witness": "core.decisions.polyhedron",
    "minimized_cover_set": "core.mcs.reduce",
    "estimate_smallest_witness": "core.witness.estimate",
    "run_rspc": "core.rspc.run",
}
CHECK_STAGE = "core.subsumption.check"

#: verdict methods the checker itself can produce (``exact`` is the
#: reference oracle's, never the pipeline's)
CHECKER_METHODS = tuple(
    method.value for method in DecisionMethod if method is not DecisionMethod.EXACT
)

#: stages timed by ``repro.obs`` inside ``src/`` plus the wrappers above;
#: each yields a ``<stage>_s`` and a ``<stage>_calls`` per-layer metric
STAGES = (
    "network.handle_subscription",
    "network.handle_unsubscription",
    "network.handle_publication",
    "network.oracle",
    "network.collect",
    "kernel.schedule",
    "broker.decision",
    "broker.route_lookup",
    "broker.match_forward",
    "broker.dedup",
    CHECK_STAGE,
    *CORE_STAGES.values(),
    "engine.subscribe",
    "engine.unsubscribe",
    "engine.match",
    "engine.match_batch",
    "shard.dispatch",
    "shard.collect",
)


def _staged(
    stage: str, func: Callable, after: Optional[Callable] = None
) -> Callable:
    """``func`` timed as ``stage`` on the active probe (a no-op without one)."""

    def wrapper(*args, **kwargs):
        obs = obs_probes.ACTIVE
        if obs is None:
            return func(*args, **kwargs)
        obs.stage_push(stage)
        try:
            result = func(*args, **kwargs)
        finally:
            obs.stage_pop()
        if after is not None:
            after(result, *args)
        return result

    return wrapper


@contextlib.contextmanager
def core_wrappers(counts: Counter) -> Iterator[None]:
    """Install the ``repro.core`` timing wrappers; counts land in ``counts``.

    Counts are taken at the same boundaries as the timers, so hit ratios
    are measured where the work happens: cache hits/misses and verdict
    methods at ``check``, fast-decision hits, MCS rows in/kept, and RSPC
    iterations and outcomes.
    """

    def after_pairwise(result, *_args):
        counts["core.decisions.pairwise_hits"] += result is not None

    def after_polyhedron(result, *_args):
        counts["core.decisions.polyhedron_hits"] += result is not None

    def after_mcs(result, table, *_args):
        counts["core.mcs.rows_in"] += table.k
        counts["core.mcs.rows_kept"] += len(result.kept_rows)

    def after_rspc(result, *_args):
        counts["core.rspc.iterations"] += result.iterations_performed
        counts["core.rspc.witness_found"] += (
            result.outcome is RSPCOutcome.WITNESS_FOUND
        )
        counts["core.rspc.exhausted"] += result.outcome is RSPCOutcome.EXHAUSTED
        counts["core.rspc.truncated"] += result.truncated

    after = {
        "detect_pairwise_cover": after_pairwise,
        "detect_polyhedron_witness": after_polyhedron,
        "minimized_cover_set": after_mcs,
        "run_rspc": after_rspc,
    }
    checker_class = subsumption.SubsumptionChecker
    original_check = checker_class.check

    def check(self, subscription, candidates):
        obs = obs_probes.ACTIVE
        if obs is None:
            return original_check(self, subscription, candidates)
        hits_before = self.cache_hits
        misses_before = self.cache_misses
        obs.stage_push(CHECK_STAGE)
        try:
            result = original_check(self, subscription, candidates)
        finally:
            obs.stage_pop()
        counts["checker.cache_hits"] += self.cache_hits - hits_before
        counts["checker.cache_misses"] += self.cache_misses - misses_before
        counts["checker.method." + result.method.value] += 1
        return result

    originals = {name: getattr(subsumption, name) for name in CORE_STAGES}
    for name, stage in CORE_STAGES.items():
        setattr(subsumption, name, _staged(stage, originals[name], after.get(name)))
    checker_class.check = check
    try:
        yield
    finally:
        checker_class.check = original_check
        for name, original in originals.items():
            setattr(subsumption, name, original)


def stage_metrics(probes: list) -> Dict[str, float]:
    """``<stage>_s`` / ``<stage>_calls``, means over the replays of ``probes``.

    Self times, so the ``_s`` rows of a workload sum to its mean
    instrumented wall time per replay.
    """
    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[stage + "_s"] = statistics.mean(
            probe.stage_self.get(stage, 0.0) for probe in probes
        )
        metrics[stage + "_calls"] = statistics.mean(
            probe.stage_calls.get(stage, 0) for probe in probes
        )
    return metrics


def staged_seconds(probes: list, prefixes: tuple) -> float:
    """Total self time of every stage whose name starts with a prefix."""
    return sum(
        seconds
        for probe in probes
        for stage, seconds in probe.stage_self.items()
        if stage.startswith(prefixes)
    )
