"""The five benchmark workloads: what runs, at which size, and why.

Specs live here, not in the ``src/`` scenario catalog: the benchmark
measures the program from outside and the program only ever sees the
inputs generated from the seed.  Sizes are frozen: one input (a compiled
scenario) replays in under a second on the recording machine, and a run
measures five of them, each from its own sub-seed (``bench/measure.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.scenarios.spec import PhaseKind, PhaseSpec, ScenarioSpec, TopologySpec

#: sub-seeds per run seed: input ``i`` of ``--seed n`` uses ``n * 1000 + i``
SEED_STRIDE = 1000

#: ``--quick`` smoke scale (never recordable)
QUICK_SCALE = 0.1

#: workers of the one workload that starts any: two, or one on one core
SHARDS = min(2, len(os.sched_getaffinity(0)))


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


def _ramp(name: str, count: int) -> PhaseSpec:
    return PhaseSpec(name, PhaseKind.SUBSCRIBE_RAMP, {"count": count})


def _burst(name: str, count: int) -> PhaseSpec:
    return PhaseSpec(name, PhaseKind.PUBLISH_BURST, {"count": count})


def _storm(name: str, fraction: float) -> PhaseSpec:
    return PhaseSpec(name, PhaseKind.UNSUBSCRIBE_STORM, {"fraction": fraction})


def _steady(name: str, ops: int, publish: float, subscribe: float, unsubscribe: float):
    return PhaseSpec(
        name,
        PhaseKind.STEADY_STATE,
        {
            "ops": ops,
            "publish_weight": publish,
            "subscribe_weight": subscribe,
            "unsubscribe_weight": unsubscribe,
        },
    )


#: RSPC guess cap of every scenario workload (BrokerNetwork's own default).
#: The spec default of 200 truncates RSPC so hard that 4 of 50 overlay
#: inputs lost a notification; at 1000, 1 of some 300 did.
_MAX_ITERATIONS = 1000

#: the overlay both network workloads run on; the tree's shape is drawn
#: from the sub-seed, so a run averages over several overlays
_OVERLAY = dict(
    workload="grid",
    topology=TopologySpec(kind="random-tree", size=8),
    clients=40,
    policy="group",
    engine_backend="linear",
    max_iterations=_MAX_ITERATIONS,
)

#: the t4-massive family on one engine
_ENGINE = dict(
    workload="paper-redundant",
    workload_params={"m": 8, "domain_size": 10_000, "k": 20},
    topology=TopologySpec(kind="line", size=1),
    clients=200,
    policy="group",
    engine_backend="counting",
    max_iterations=_MAX_ITERATIONS,
)


def churn_overlay(scale: float) -> ScenarioSpec:
    return ScenarioSpec(
        name="churn-overlay",
        tier="bench",
        phases=[
            _ramp("ramp", _scaled(200, scale)),
            _storm("storm", 0.5),
            _ramp("re-ramp", _scaled(130, scale)),
            _burst("pubs", _scaled(60, scale)),
            _steady("steady", _scaled(260, scale), 0.2, 0.45, 0.35),
        ],
        **_OVERLAY,
    )


def burst_overlay(scale: float) -> ScenarioSpec:
    return ScenarioSpec(
        name="burst-overlay",
        tier="bench",
        phases=[
            _ramp("ramp", _scaled(50, scale)),
            _burst("burst", _scaled(5000, scale)),
            _steady("trickle", _scaled(4000, scale), 0.985, 0.009, 0.006),
        ],
        **_OVERLAY,
    )


def _cycle(name: str, ramp: int, burst: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        tier="bench",
        phases=[
            _ramp("ramp-0", ramp),
            _storm("storm", 0.9),
            _ramp("ramp-1", ramp),
            _burst("burst", burst),
        ],
        **_ENGINE,
    )


def cycle_engine(scale: float) -> ScenarioSpec:
    return _cycle("cycle-engine", _scaled(640, scale), _scaled(4000, scale))


def cycle_sharded(scale: float) -> ScenarioSpec:
    return _cycle("cycle-sharded", _scaled(800, scale), _scaled(5000, scale))


@dataclass(frozen=True)
class ScenarioWorkload:
    """A compiled scenario replayed through :class:`ScenarioRunner`."""

    name: str
    why: str
    spec: Callable[[float], ScenarioSpec]
    backend: str
    #: phase-class throughputs reported on this workload: only where those
    #: phases are a sizeable part of an input (elsewhere a ramp or a burst
    #: lasts tens of milliseconds and would report timer noise)
    phase_metrics: Tuple[str, ...]
    shards: int = 0
    #: passes over the inputs in suite mode (a timed run fits as many as
    #: its ``--seconds`` allow)
    suite_passes: int = 3


@dataclass(frozen=True)
class CheckerWorkload:
    """Direct ``SubsumptionChecker.check`` calls over the Section-6 families."""

    name: str
    why: str
    k: int = 200
    m: int = 15
    domain_size: int = 10_000
    gap_fraction: float = 0.02
    delta: float = 1e-6
    max_iterations: int = 10_000
    #: instances per family in one input's pool
    instances: int = 4
    #: a pass over five pools is 100 checks, a third of a second
    suite_passes: int = 30


WORKLOADS: Dict[str, object] = {
    workload.name: workload
    for workload in (
        ScenarioWorkload(
            "churn-overlay",
            "subscription-control traffic on an 8-broker overlay: every "
            "subscribe/unsubscribe triggers per-link covering decisions, so "
            "checker, policy and cache changes show here",
            churn_overlay,
            backend="network",
            phase_metrics=("control_events_per_s",),
        ),
        ScenarioWorkload(
            "burst-overlay",
            "publication traffic reading the same overlay tables (route "
            "lookup, match-forward, oracle, kernel, dedup) in one large and "
            "many small batches; decisions stay under a fifth of the time",
            burst_overlay,
            backend="network",
            phase_metrics=("publish_events_per_s",),
        ),
        ScenarioWorkload(
            "cycle-engine",
            "the single-process store/arena/cover-forest/counting-index hot "
            "loop on high-redundancy inputs, with no broker, kernel or oracle",
            cycle_engine,
            backend="engine",
            phase_metrics=("control_events_per_s", "publish_events_per_s"),
        ),
        ScenarioWorkload(
            "cycle-sharded",
            "the same engine cycle through two shard workers: dispatch, "
            "collect, shared-memory arenas, pipe batching and worker balance",
            cycle_sharded,
            backend="engine",
            phase_metrics=("control_events_per_s", "publish_events_per_s"),
            shards=SHARDS,
        ),
        CheckerWorkload(
            "checker-families",
            "the paper's algorithm alone on its five Section-6 families at "
            "k=200, m=15 with ground truth by construction; each family ends "
            "at a different stage and the verdict cache never hits",
        ),
    )
}
