"""Execution of compiled scenarios against the system under test.

:class:`ScenarioRunner` drives either the distributed
:class:`~repro.broker.network.BrokerNetwork` (``backend="network"``, the
default — measures routing traffic, covering decisions and delivery loss
against the network's global oracle) or a single
:class:`~repro.matching.engine.MatchingEngine` (``backend="engine"`` — the
hot-loop configuration used by the throughput benchmark).

Both backends run through one phase loop: subscribe and unsubscribe
events go one at a time, and each run of consecutive publish events is
one burst (``publish_many`` on the network under the zero latency model,
``match_batch`` on the engine).  A small driver per backend makes the
calls and names the :class:`~repro.obs.instruments.InstrumentRegistry`
its counters live in and the function that turns a diff of it into the
report's keys.  The loop snapshots that registry before each phase and
reports ``registry.diff(mark)`` after it, so a report reads as "what did
the *storm* cost" rather than one blurred total; the totals are the diff
since the loop began.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.broker.network import BrokerNetwork
from repro.broker.sim import parse_latency_model
from repro.core.policies import policy_value
from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import EngineCounters, MatchingEngine
from repro.obs import probes as obs_probes
from repro.scenarios.events import (
    CompiledScenario,
    EventAction,
    compile_scenario,
    derive_streams,
)
from repro.scenarios.spec import ScenarioSpec
from repro.utils.rng import ensure_rng
from repro.utils.tables import render_table

__all__ = ["PhaseReport", "ScenarioReport", "ScenarioRunner"]


@dataclass
class PhaseReport:
    """Outcome of one phase of a scenario run."""

    name: str
    kind: str
    events: int
    subscribes: int
    unsubscribes: int
    publishes: int
    wall_time: float
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dictionary."""
        return {
            "name": self.name,
            "kind": self.kind,
            "events": self.events,
            "subscribes": self.subscribes,
            "unsubscribes": self.unsubscribes,
            "publishes": self.publishes,
            "wall_time": self.wall_time,
            "metrics": dict(self.metrics),
        }


@dataclass
class ScenarioReport:
    """Outcome of a full scenario run."""

    scenario: str
    tier: str
    seed: int
    backend: str
    policy: str
    brokers: int
    clients: int
    event_count: int
    trace_hash: str
    wall_time: float
    engine_backend: str = "linear"
    latency_model: str = "zero"
    phases: List[PhaseReport] = field(default_factory=list)
    totals: Dict[str, float] = field(default_factory=dict)

    @property
    def false_decision_rate(self) -> float:
        """Fraction of expected notifications lost to erroneous decisions."""
        expected = self.totals.get("expected_notifications", 0)
        if not expected:
            return 0.0
        return self.totals.get("missed_notifications", 0) / expected

    @property
    def events_per_second(self) -> float:
        """Throughput of the run (0.0 when wall time was unmeasurably small)."""
        if self.wall_time <= 0:
            return 0.0
        return self.event_count / self.wall_time

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dictionary (JSON-safe)."""
        return {
            "scenario": self.scenario,
            "tier": self.tier,
            "seed": self.seed,
            "backend": self.backend,
            "engine_backend": self.engine_backend,
            "policy": self.policy,
            "brokers": self.brokers,
            "clients": self.clients,
            "event_count": self.event_count,
            "trace_hash": self.trace_hash,
            "latency_model": self.latency_model,
            "wall_time": self.wall_time,
            "events_per_second": round(self.events_per_second, 1),
            "false_decision_rate": round(self.false_decision_rate, 6),
            "phases": [phase.to_dict() for phase in self.phases],
            "totals": dict(self.totals),
        }

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    _NETWORK_COLUMNS = (
        ("events", "events"),
        ("sub msgs", "subscription_messages"),
        ("unsub msgs", "unsubscription_messages"),
        ("pub msgs", "publication_messages"),
        ("notified", "notifications"),
        ("missed", "missed_notifications"),
        ("false pos", "false_positive_notifications"),
        ("suppressed", "suppressed_subscriptions"),
        ("checks", "subsumption_checks"),
        ("rspc iters", "rspc_iterations"),
    )
    _ENGINE_COLUMNS = (
        ("events", "events"),
        ("matched pubs", "publications"),
        ("notified", "notifications"),
        ("active tests", "active_tests"),
        ("covered tests", "covered_tests"),
        ("stored subs", "subscriptions_total"),
    )

    @property
    def _COLUMNS(self):
        return self._ENGINE_COLUMNS if self.backend == "engine" else self._NETWORK_COLUMNS

    def render(self) -> str:
        """ASCII table of the per-phase metric deltas plus a totals row."""
        header = [
            f"Scenario {self.scenario} ({self.tier}) — seed {self.seed}, "
            f"backend {self.backend}, matcher {self.engine_backend}, "
            f"latency {self.latency_model}, policy {self.policy}",
            f"brokers {self.brokers}, clients {self.clients}, "
            f"{self.event_count} events in {self.wall_time * 1000:.1f} ms "
            f"({self.events_per_second:,.0f} events/s), "
            f"false-decision rate {self.false_decision_rate:.4f}",
        ]
        labels = ["phase"] + [label for label, _ in self._COLUMNS] + ["ms"]
        rows: List[List[str]] = []
        for phase in self.phases:
            row = [phase.name, str(phase.events)]
            for _, key in self._COLUMNS[1:]:
                value = phase.metrics.get(key, "")
                row.append(f"{value:g}" if value != "" else "-")
            row.append(f"{phase.wall_time * 1000:.1f}")
            rows.append(row)
        total_row = ["TOTAL", str(self.event_count)]
        for _, key in self._COLUMNS[1:]:
            value = self.totals.get(key, "")
            total_row.append(f"{value:g}" if value != "" else "-")
        total_row.append(f"{self.wall_time * 1000:.1f}")
        rows.append(total_row)

        return "\n".join(
            header + [render_table(labels, rows, right_align_from=1)]
        )


class ScenarioRunner:
    """Runs a (compiled) scenario against the chosen backend.

    Parameters
    ----------
    spec:
        The scenario to run (ignored when :meth:`run` is given an already
        compiled scenario).
    seed:
        Seed controlling compilation *and* the backend's random streams.
    backend:
        ``network`` (broker overlay, full metrics) or ``engine`` (single
        matching engine, hot-loop throughput).
    latency_model:
        Latency model override for the network backend's simulation
        kernel; when ``None`` the spec's ``latency_model`` field decides.
    obs:
        Optional :class:`~repro.obs.probes.ObsProbe`.  When given, it is
        installed for the duration of :meth:`run` (the previous probe is
        restored afterwards), and a probe observes whatever runs while it
        is installed.  ``None`` (the default) leaves whatever probe state
        the process already has.  Shard workers are never observed.
    shards:
        Multi-process execution of the engine backend.  ``0``, the
        default, is one in-process :class:`MatchingEngine`; ``N > 0`` is
        a pool of per-shard engines whose checker streams derive from the
        fixed shard→seed mapping.  Either way each publish run is one
        ``match_batch`` burst.  A deployment choice, deliberately *not*
        part of the spec: traces and their hashes do not record it.  The
        network backend runs in one process and rejects ``shards > 0``.
    """

    def __init__(
        self,
        spec: Optional[ScenarioSpec] = None,
        seed: int = 0,
        backend: str = "network",
        latency_model: Optional[str] = None,
        obs=None,
        shards: int = 0,
    ):
        if backend not in ("network", "engine"):
            raise ValueError(f"unknown backend {backend!r}")
        if latency_model is not None:
            parse_latency_model(latency_model)
        if shards < 0:
            raise ValueError("shards must be >= 0")
        if shards and backend == "network":
            raise ValueError(
                "shards > 0 needs the engine backend; the network backend "
                "runs in one process"
            )
        self.spec = spec
        self.seed = seed
        self.backend = backend
        self.latency_model = latency_model
        self.obs = obs
        self.shards = shards

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, compiled: Optional[CompiledScenario] = None) -> ScenarioReport:
        """Execute the scenario and return its report.

        When ``compiled`` is given (e.g. loaded from a trace), the event
        stream is taken verbatim and only the backend's random stream is
        re-derived from the compiled seed — which is what makes a replay
        reproduce the original run's metrics exactly.
        """
        if compiled is None:
            if self.spec is None:
                raise ValueError("runner needs a spec or a compiled scenario")
            compiled = compile_scenario(self.spec, self.seed)
        if self.obs is not None:
            with obs_probes.enabled(self.obs):
                return self._dispatch(compiled)
        return self._dispatch(compiled)

    def _dispatch(self, compiled: CompiledScenario) -> ScenarioReport:
        if self.backend == "network":
            driver = _NetworkDriver(compiled, self.latency_model)
        elif self.shards:
            driver = _ShardPoolDriver(compiled, self.shards)
        else:
            driver = _EngineDriver(compiled)
        try:
            return self._run_phases(compiled, driver)
        finally:
            driver.close()

    # ------------------------------------------------------------------
    # The phase loop
    # ------------------------------------------------------------------
    def _run_phases(self, compiled: CompiledScenario, driver) -> ScenarioReport:
        """Feed every phase's events to ``driver`` and report the deltas.

        A publish run is one burst when the driver takes bursts.  A phase's
        wall time includes the driver's ``sync``, where the shard pool
        drains, and reading its metrics.
        """
        spec = compiled.spec
        registry = driver.registry
        origin = registry.snapshot()
        phases: List[PhaseReport] = []
        started = time.perf_counter()
        for phase_name, phase_events in self._grouped(compiled):
            mark = registry.snapshot()
            phase_started = time.perf_counter()
            total = len(phase_events)
            index = 0
            while index < total:
                event = phase_events[index]
                index += 1
                if event.action is EventAction.SUBSCRIBE:
                    driver.subscribe(event)
                elif event.action is EventAction.UNSUBSCRIBE:
                    driver.unsubscribe(event)
                else:
                    start = index - 1
                    while (
                        driver.bursts
                        and index < total
                        and phase_events[index].action is EventAction.PUBLISH
                    ):
                        index += 1
                    driver.publish(phase_events[start:index])
            driver.sync()
            metrics = driver.report(registry.diff(mark))
            phase_wall = time.perf_counter() - phase_started
            counts = Counter(event.action for event in phase_events)
            phases.append(
                PhaseReport(
                    name=phase_name,
                    kind=self._phase_kind(spec, phase_name),
                    events=total,
                    subscribes=counts[EventAction.SUBSCRIBE],
                    unsubscribes=counts[EventAction.UNSUBSCRIBE],
                    publishes=counts[EventAction.PUBLISH],
                    wall_time=phase_wall,
                    metrics=metrics,
                )
            )
        wall_time = time.perf_counter() - started

        return ScenarioReport(
            scenario=spec.name,
            tier=spec.tier,
            seed=compiled.seed,
            backend=self.backend,
            policy=policy_value(spec.policy),
            brokers=driver.brokers,
            clients=len(compiled.clients),
            event_count=compiled.event_count,
            trace_hash=compiled.trace_hash(),
            wall_time=wall_time,
            engine_backend=spec.engine_backend,
            latency_model=driver.latency_model,
            phases=phases,
            totals=driver.report(registry.diff(origin)),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _grouped(compiled: CompiledScenario):
        """Events grouped by phase, preserving timeline order.

        Phases that compiled to zero events (e.g. a storm with nothing
        live) still appear, so reports always show the full timeline.
        """
        groups: Dict[str, List] = {
            phase.name: [] for phase in compiled.spec.phases
        }
        for event in compiled.events:
            groups.setdefault(event.phase, []).append(event)
        return groups.items()

    @staticmethod
    def _phase_kind(spec: ScenarioSpec, phase_name: str) -> str:
        for phase in spec.phases:
            if phase.name == phase_name:
                return phase.kind.value
        return "unknown"


class _NetworkDriver:
    """The broker overlay behind the phase loop.

    Under the zero latency model the kernel is the seed's FIFO pump, so a
    publish run is injected as one burst without changing any observable
    outcome.  Timed models publish one at a time: a burst would collapse
    its events onto a single virtual instant.
    """

    def __init__(self, compiled: CompiledScenario, latency_model: Optional[str]):
        spec = compiled.spec
        latency_model = latency_model or spec.latency_model
        self.network = BrokerNetwork(
            compiled.edges,
            policy=spec.policy,
            delta=spec.delta,
            max_iterations=spec.max_iterations,
            rng=ensure_rng(derive_streams(compiled.seed)["network"]),
            latency_model=latency_model,
            merge_budget=spec.merge_budget,
        )
        for client, broker in compiled.clients.items():
            self.network.attach_client(client, broker)
        self.latency_model = latency_model
        self.bursts = latency_model == "zero"
        self.brokers = len(self.network.brokers)
        self.registry = self.network.metrics.registry
        self.report = self.network.metrics.report

    def subscribe(self, event) -> None:
        self.network.subscribe(event.client, event.subscription)

    def unsubscribe(self, event) -> None:
        self.network.unsubscribe(event.client, event.subscription_id)

    def publish(self, events) -> None:
        self.network.publish_many([(e.client, e.publication) for e in events])

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass


class _EngineDriver:
    """One in-process matching engine behind the phase loop: every publish
    run is one ``match_batch`` burst."""

    latency_model = "zero"
    bursts = True
    brokers = 0
    report = staticmethod(EngineCounters.report)

    def __init__(self, compiled: CompiledScenario):
        spec = compiled.spec
        checker = SubsumptionChecker(
            delta=spec.delta,
            max_iterations=spec.max_iterations,
            rng=ensure_rng(derive_streams(compiled.seed)["network"]),
        )
        self.engine = MatchingEngine(
            policy=spec.policy, checker=checker, merge_budget=spec.merge_budget
        )

    @property
    def registry(self):
        return self.engine.counters.registry

    def subscribe(self, event) -> None:
        self.engine.subscribe(event.subscription)

    def unsubscribe(self, event) -> None:
        self.engine.unsubscribe(event.subscription_id)

    def publish(self, events) -> None:
        self.engine.match_batch([e.publication for e in events])

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ShardPoolDriver(_EngineDriver):
    """The shard pool behind the phase loop.

    Routing is fire-and-forget, so a phase's metrics wait for the pipes to
    drain: buffered decision work is charged to the phase that generated
    it, and deferred worker errors surface there, not phases later.
    """

    def __init__(self, compiled: CompiledScenario, shards: int):
        from repro.shard.engine import ShardedMatchingEngine

        spec = compiled.spec
        self.engine = ShardedMatchingEngine(
            shards=shards,
            policy=spec.policy,
            delta=spec.delta,
            max_iterations=spec.max_iterations,
            merge_budget=spec.merge_budget,
            seed=compiled.seed,
        )

    def sync(self) -> None:
        self.engine.sync()

    def close(self) -> None:
        self.engine.close()
