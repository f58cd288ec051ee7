"""Registry-driven, replayable dynamic-workload scenarios.

Where :mod:`repro.workloads` generates the paper's *static* evaluation
instances (a subscription plus a candidate set), this package expresses
*dynamic* workloads: declarative, seeded :class:`ScenarioSpec` timelines
of subscribe ramps, unsubscribe storms, publication bursts, flash crowds
and steady-state mixes, compiled into deterministic event streams and
executed against the broker overlay or the matching engine with per-phase
metrics.

The moving parts:

:class:`ScenarioSpec` / :class:`PhaseSpec` / :class:`TopologySpec`
    Declarative scenario description (:mod:`repro.scenarios.spec`).
:func:`compile_scenario`
    ``(spec, seed) -> CompiledScenario`` deterministic event stream
    (:mod:`repro.scenarios.events`).
:class:`ScenarioRegistry` / :func:`register`
    Central catalog; ``repro.scenarios.catalog`` registers the seven
    canonical tiers T0–T3 (:mod:`repro.scenarios.registry`).
:class:`ScenarioRunner`
    Drives :class:`~repro.broker.network.BrokerNetwork` or
    :class:`~repro.matching.engine.MatchingEngine` through the stream,
    reporting per-phase metric deltas (:mod:`repro.scenarios.runner`).
:func:`write_trace` / :func:`read_trace`
    JSONL trace recording; any run replays byte-for-byte from its trace
    (:mod:`repro.scenarios.trace`).

Command line: ``python -m repro.scenarios {list,describe,run,replay}``.
"""

from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.catalog import CANONICAL_TIERS
from repro.scenarios.events import (
    CompiledScenario,
    EventAction,
    ScenarioEvent,
    compile_scenario,
    make_workload,
    trace_hash,
)
from repro.scenarios.registry import (
    REGISTRY,
    ScenarioRegistry,
    get_scenario,
    register,
)
from repro.scenarios.runner import PhaseReport, ScenarioReport, ScenarioRunner
from repro.scenarios.spec import PhaseKind, PhaseSpec, ScenarioSpec, TopologySpec
from repro.scenarios.trace import TraceError, read_trace, write_trace

__all__ = [
    "CANONICAL_TIERS",
    "CompiledScenario",
    "EventAction",
    "PhaseKind",
    "PhaseReport",
    "PhaseSpec",
    "REGISTRY",
    "ScenarioEvent",
    "ScenarioRegistry",
    "ScenarioReport",
    "ScenarioRunner",
    "ScenarioSpec",
    "TopologySpec",
    "TraceError",
    "compile_scenario",
    "get_scenario",
    "make_workload",
    "read_trace",
    "register",
    "trace_hash",
    "write_trace",
]
