"""Compilation of a :class:`~repro.scenarios.spec.ScenarioSpec` into events.

``compile_scenario(spec, seed)`` turns the declarative phase timeline into a
flat, deterministic stream of :class:`ScenarioEvent` operations (subscribe /
unsubscribe / publish), each bound to a client and carrying its payload.

Determinism contract
--------------------
The same ``(spec, seed)`` pair always produces the same compiled scenario:

* all randomness flows from four named streams spawned in a fixed order
  from ``numpy.random.SeedSequence(seed)`` (topology shape, workload
  content, phase mixing, broker network), so adding consumers to one
  stream never perturbs the others;
* subscription and publication identifiers are sequential scenario-scoped
  identifiers (``s00001``, ``p00001``, …), so the global process-wide ID
  counters of the data model never leak into a trace.

This is what makes the trace hash of a compiled scenario a stable
fingerprint: two compilations of the same ``(spec, seed)`` — in the same
process or years apart — hash identically.

Two passes, one stream each
---------------------------
Compilation is two passes over the timeline (:class:`_EventBuilder`):

1. *Schedule* — reads only the ``mix`` stream.  It decides the operation
   sequence: which action comes next in a steady-state phase, which client
   issues it, which live subscription a storm cancels, and the scenario
   identifier each operation carries.  None of that ever depended on what
   a subscription or publication *contains* — victims are picked by
   position in the issue-ordered live list, identifiers are counters — so
   the pass is content-free and never touches the workload.
2. *Materialise* — reads only the ``workload`` stream, in event order.
   Subscriptions are generated one by one (each is built once, already
   carrying its subscriber and scenario identifier); publications are
   generated over *maximal runs* of consecutive publish operations, across
   phase boundaries: one :meth:`publication_points` call on the workload
   and one :meth:`Publication.from_matrix` per run.

Because every workload draws a run of ``n`` publications exactly as it
draws ``n`` runs of one (``tests/test_scenario_compile.py``), run length is
execution policy only: a burst of 100 000 and a single steady-state
publish take the same code path and consume the same stream.  The same
holds inside pass 1, which picks the clients of a ramp or burst, and the
victims of a storm, in one broadcast-bounds ``Generator.integers`` call —
the stream of that many scalar calls.  Pass 1 is a generator that pass 2
consumes, so the schedule is never held whole: the two streams being
independent is what lets the passes interleave in time.

Two loops stay scalar, because each draw decides what the next one is: a
steady-state phase rolls ``random()`` per operation, then picks a client
or a victim, and a paper family rolls ``random()`` per publication to
choose the box its point falls in.  Both draw through
:func:`~repro.utils.rng.scalar_draws`, which gives NumPy's scalar values
and end state and, on a ``PCG64``, computes them in plain Python from
words read ahead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.serialization import (
    publication_from_dict,
    publication_to_dict,
    schema_to_dict,
    subscription_from_dict,
    subscription_to_dict,
)
from repro.model.subscriptions import Subscription
from repro.scenarios.spec import PhaseKind, PhaseSpec, ScenarioSpec
from repro.utils.rng import ensure_rng, scalar_draws
from repro.workloads.bike_rental import BikeRentalWorkload
from repro.workloads.comparison import ComparisonWorkload
from repro.workloads.grid import GridWorkload
from repro.workloads.scenarios import ScenarioName, generate_scenario

__all__ = [
    "EventAction",
    "ScenarioEvent",
    "CompiledScenario",
    "compile_scenario",
    "derive_streams",
    "make_workload",
    "trace_hash",
    "WORKLOAD_NAMES",
]


class EventAction(str, Enum):
    """What one event does to the system under test."""

    SUBSCRIBE = "subscribe"
    UNSUBSCRIBE = "unsubscribe"
    PUBLISH = "publish"


@dataclass(frozen=True)
class ScenarioEvent:
    """One operation of the compiled event stream.

    Exactly one of ``subscription`` / ``publication`` / ``subscription_id``
    is set, matching the action.
    """

    seq: int
    phase: str
    action: EventAction
    client: str
    subscription: Optional[Subscription] = None
    publication: Optional[Publication] = None
    subscription_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-safe dictionary (one trace line)."""
        payload: Dict[str, Any] = {
            "seq": self.seq,
            "phase": self.phase,
            "action": self.action.value,
            "client": self.client,
        }
        if self.action is EventAction.SUBSCRIBE:
            payload["subscription"] = subscription_to_dict(self.subscription)
        elif self.action is EventAction.PUBLISH:
            payload["publication"] = publication_to_dict(self.publication)
        else:
            payload["subscription_id"] = self.subscription_id
        return payload

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], schema: Schema
    ) -> "ScenarioEvent":
        """Deserialize an event produced by :meth:`to_dict`."""
        action = EventAction(payload["action"])
        subscription = None
        publication = None
        subscription_id = None
        if action is EventAction.SUBSCRIBE:
            subscription = subscription_from_dict(payload["subscription"], schema)
        elif action is EventAction.PUBLISH:
            publication = publication_from_dict(payload["publication"], schema)
        else:
            subscription_id = payload["subscription_id"]
        return cls(
            seq=payload["seq"],
            phase=payload["phase"],
            action=action,
            client=payload["client"],
            subscription=subscription,
            publication=publication,
            subscription_id=subscription_id,
        )


@dataclass(frozen=True)
class CompiledScenario:
    """A spec materialised into a concrete, runnable event stream.

    Immutable: the events are a tuple, so :meth:`trace_hash` is computed
    on its first call and then reused (never by :func:`compile_scenario`
    itself, so compiling does not pay for it).

    ``recorded_backend`` and ``recorded_latency_model`` are only set on
    scenarios loaded from a trace whose header names the runner backend /
    latency model the original run used; they are advisory replay
    metadata, not part of the stream (and not part of the trace hash — the
    stream itself is backend-independent, and reports always display which
    backend ran).  The latency model that *compiles into* the spec
    (``ScenarioSpec.latency_model``) is, by contrast, replay-binding and
    hashed with the rest of the spec.
    """

    spec: ScenarioSpec
    seed: int
    schema: Schema
    edges: List[Tuple[str, str]]
    clients: Dict[str, str]
    events: Tuple[ScenarioEvent, ...]
    recorded_backend: Optional[str] = None
    recorded_latency_model: Optional[str] = None

    @property
    def event_count(self) -> int:
        """Number of events in the stream."""
        return len(self.events)

    def trace_hash(self) -> str:
        """Stable fingerprint of the whole compiled scenario.

        Covers everything that determines a replay's outcome — the spec,
        the seed, the schema, the materialised topology, the client
        placement *and* the event stream — so editing any replay-relevant
        part of a recorded trace changes the hash, not just editing event
        lines.
        """
        return self._trace_hash

    @cached_property
    def _trace_hash(self) -> str:
        digest = hashlib.sha256()
        binding = {
            "seed": self.seed,
            "scenario": self.spec.to_dict(),
            "schema": schema_to_dict(self.schema),
            "edges": [list(edge) for edge in self.edges],
            "clients": dict(self.clients),
        }
        digest.update(
            json.dumps(binding, sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
        digest.update(trace_hash(self.events).encode())
        return digest.hexdigest()


def trace_hash(events: Sequence[ScenarioEvent]) -> str:
    """SHA-256 over the canonical JSON serialization of the events."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def derive_streams(seed: int) -> Dict[str, np.random.SeedSequence]:
    """The four named RNG streams of a scenario, spawned in fixed order."""
    topology, workload, mix, network = np.random.SeedSequence(seed).spawn(4)
    return {
        "topology": topology,
        "workload": workload,
        "mix": mix,
        "network": network,
    }


# ----------------------------------------------------------------------
# Workload adapters
# ----------------------------------------------------------------------
class _GridAdapter:
    """Maps the Grid workload onto the subscription/publication protocol."""

    def __init__(self, workload: GridWorkload):
        self._workload = workload
        self.schema = workload.schema

    def subscription(
        self, subscriber: Optional[str] = None, subscription_id: Optional[str] = None
    ) -> Subscription:
        return self._workload.service_subscription(subscriber, subscription_id)

    def publication(self, publisher: Optional[str] = None) -> Publication:
        return self._workload.job_publication(job_id=publisher)

    def publication_points(self, count: int) -> np.ndarray:
        return self._workload.job_points(count)


class _PaperFigureWorkload:
    """Streams subscriptions/publications out of the paper's static scenarios.

    Each paper-figure generator produces one *instance* — a base
    subscription ``s`` plus candidate set ``S`` engineered for a specific
    covering structure (Section 6).  The adapter turns that into a stream:
    it drains ``[s] + S`` as the subscription source (regenerating a fresh
    instance when the pool is exhausted) and publishes points that fall
    inside the current base subscription with probability
    ``match_probability`` (else uniformly in the space), so publications
    actually exercise the covering-structured routing state.  The schema
    is all-integer, so a point is one integer draw per attribute.
    """

    def __init__(
        self,
        scenario: ScenarioName,
        schema: Schema,
        rng: np.random.Generator,
        k: int = 20,
        match_probability: float = 0.7,
        **scenario_kwargs: Any,
    ):
        self.schema = schema
        self._scenario = ScenarioName(scenario)
        self._rng = rng
        self._k = k
        self._match_probability = match_probability
        self._scenario_kwargs = dict(scenario_kwargs)
        self._pool: List[Subscription] = []
        self._next = 0
        self._base: Optional[Subscription] = None
        if not schema.vectors.discrete.all():
            raise ValueError("the paper families need an all-integer schema")
        self._everywhere = _integer_bounds(Subscription.whole_space(schema))

    def _refill(self) -> None:
        instance = generate_scenario(
            self._scenario, self.schema, self._k, rng=self._rng,
            **self._scenario_kwargs,
        )
        self._base = instance.subscription
        self._pool = [instance.subscription, *instance.candidates]
        self._next = 0

    def subscription(
        self, subscriber: Optional[str] = None, subscription_id: Optional[str] = None
    ) -> Subscription:
        if self._next == len(self._pool):
            self._refill()
        self._next += 1
        return self._pool[self._next - 1].replace(
            subscription_id=subscription_id, subscriber=subscriber
        )

    def publication_points(self, count: int) -> np.ndarray:
        """``count`` encoded points, one per row: each one ``random()`` draw
        choosing the box, then one ``integers`` draw per attribute of that
        box — the stream of ``random()`` and ``sample_point`` per point,
        drawn through :func:`~repro.utils.rng.scalar_draws`."""
        if self._base is None:
            self._refill()
        inside = _integer_bounds(self._base)
        everywhere = self._everywhere
        probability = self._match_probability
        with scalar_draws(self._rng) as draws:
            random, integer = draws.random, draws.integer
            rows = [
                [
                    integer(first, span)
                    for first, span in (
                        inside if random() < probability else everywhere
                    )
                ]
                for _ in range(count)
            ]
        return np.array(rows, dtype=float).reshape(count, self.schema.m)

    def publication(self, publisher: Optional[str] = None) -> Publication:
        return Publication(
            self.schema, self.publication_points(1)[0], publisher=publisher
        )


def _integer_bounds(box: Subscription) -> List[Tuple[int, int]]:
    """``(first, span)`` of each attribute of a box on an all-integer
    schema, from its sampling plan (one integer step)."""
    ((_, _, _, first, beyond),) = box.sampling_plan()
    return list(zip(first.ravel().tolist(), (beyond - first).ravel().tolist()))


#: workload names accepted by :func:`make_workload`
WORKLOAD_NAMES = (
    "bike-rental",
    "grid",
    "comparison",
    "paper-redundant",
    "paper-noncover",
    "paper-extreme",
)

_PAPER_SCENARIOS = {
    "paper-redundant": ScenarioName.REDUNDANT_COVERING,
    "paper-noncover": ScenarioName.NON_COVER,
    "paper-extreme": ScenarioName.EXTREME_NON_COVER,
}


def make_workload(name: str, params: Mapping[str, Any], rng: np.random.Generator):
    """Instantiate the named workload adapter with its own RNG stream.

    The returned object exposes ``schema``,
    ``subscription(subscriber=…, subscription_id=…)``,
    ``publication(publisher=…)`` and ``publication_points(count)`` — the
    encoded ``(count, m)`` matrix of a run of publications, drawn exactly
    as ``count`` single publications would be.
    """
    params = dict(params)
    if name == "bike-rental":
        return BikeRentalWorkload(rng=rng, **params)
    if name == "grid":
        return _GridAdapter(GridWorkload(rng=rng, **params))
    if name == "comparison":
        m = params.pop("m", 8)
        domain_size = params.pop("domain_size", 10_000)
        schema = Schema.uniform_integer(m, 0, domain_size)
        return ComparisonWorkload(schema=schema, rng=rng, **params)
    if name in _PAPER_SCENARIOS:
        m = params.pop("m", 8)
        domain_size = params.pop("domain_size", 10_000)
        schema = Schema.uniform_integer(m, 0, domain_size)
        if _PAPER_SCENARIOS[name] is ScenarioName.EXTREME_NON_COVER:
            params.setdefault("gap_fraction", 0.02)
        return _PaperFigureWorkload(
            _PAPER_SCENARIOS[name], schema, rng, **params
        )
    raise ValueError(
        f"unknown workload {name!r}; expected one of {WORKLOAD_NAMES}"
    )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
#: one scheduled operation: ``(phase, action, client, identifier)`` — the
#: identifier is the subscription's (issued or cancelled) or publication's
_Operation = Tuple[str, EventAction, str, str]


class _EventBuilder:
    """The two passes of compilation (see the module docstring)."""

    def __init__(self, spec: ScenarioSpec, workload, mix: np.random.Generator):
        self.spec = spec
        self.workload = workload
        self.mix = mix
        self.events: List[ScenarioEvent] = []
        self.client_names = [f"c{index + 1:03d}" for index in range(spec.clients)]
        #: live ``(subscription id, owning client)`` pairs in issue order
        self._live: List[Tuple[str, str]] = []
        self._subscription_count = 0
        self._publication_count = 0

    # ------------------------------------------------------------------
    # Pass 1: the mix stream decides who does what, in which order
    # ------------------------------------------------------------------
    def _subscribe(self, phase: str, client: str) -> _Operation:
        self._subscription_count += 1
        identifier = f"s{self._subscription_count:05d}"
        self._live.append((identifier, client))
        return phase, EventAction.SUBSCRIBE, client, identifier

    def _publish(self, phase: str, client: str) -> _Operation:
        self._publication_count += 1
        return phase, EventAction.PUBLISH, client, f"p{self._publication_count:05d}"

    def _unsubscribe(self, phase: str, position: int) -> _Operation:
        identifier, client = self._live.pop(position)
        return phase, EventAction.UNSUBSCRIBE, client, identifier

    def _pick_clients(self, count: int) -> List[str]:
        # one call for the run: the stream of ``count`` scalar picks
        picks = self.mix.integers(0, len(self.client_names), size=count)
        return [self.client_names[pick] for pick in picks.tolist()]

    def _subscribes(self, phase: str, count: int) -> Iterator[_Operation]:
        for client in self._pick_clients(count):
            yield self._subscribe(phase, client)

    def _publishes(self, phase: str, count: int) -> Iterator[_Operation]:
        for client in self._pick_clients(count):
            yield self._publish(phase, client)

    def _unsubscribes(self, phase: str, count: int) -> Iterator[_Operation]:
        """Cancel ``count`` live subscriptions (at most all of them).

        Victim ``i`` is a uniform position in the live list as the first
        ``i`` cancellations left it: one broadcast-bounds draw for the
        storm, the stream of ``count`` scalar draws with shrinking bounds.
        """
        count = min(count, len(self._live))
        if not count:
            return
        remaining = np.arange(len(self._live), len(self._live) - count, -1)
        for position in self.mix.integers(0, remaining).tolist():
            yield self._unsubscribe(phase, position)

    def _steady_state(
        self, phase: str, params: Mapping[str, Any]
    ) -> Iterator[_Operation]:
        """A mix of ``ops`` operations, each a ``random()`` roll choosing
        the action, then the client's or the victim's scalar ``integers``
        draw, through :func:`~repro.utils.rng.scalar_draws`."""
        weights = np.array(
            [
                float(params.get("publish_weight", 0.6)),
                float(params.get("subscribe_weight", 0.3)),
                float(params.get("unsubscribe_weight", 0.1)),
            ]
        )
        weights = weights / weights.sum()
        publish_below = float(weights[0])
        subscribe_below = float(weights[0] + weights[1])
        names = self.client_names
        with scalar_draws(self.mix) as draws:
            for _ in range(int(params.get("ops", 0))):
                roll = draws.random()
                if publish_below <= roll < subscribe_below:
                    yield self._subscribe(phase, names[draws.integer(0, len(names))])
                elif roll >= subscribe_below and self._live:
                    yield self._unsubscribe(phase, draws.integer(0, len(self._live)))
                else:
                    # a publish; an unsubscribe with nothing live to cancel
                    # keeps the op count by publishing
                    yield self._publish(phase, names[draws.integer(0, len(names))])

    def _phase_operations(self, phase: PhaseSpec) -> Iterator[_Operation]:
        params = phase.params
        if phase.kind is PhaseKind.SUBSCRIBE_RAMP:
            yield from self._subscribes(phase.name, int(params.get("count", 0)))
        elif phase.kind is PhaseKind.PUBLISH_BURST:
            yield from self._publishes(phase.name, int(params.get("count", 0)))
        elif phase.kind is PhaseKind.UNSUBSCRIBE_STORM:
            if "count" in params:
                victims = int(params["count"])
            else:
                victims = int(round(float(params["fraction"]) * len(self._live)))
            yield from self._unsubscribes(phase.name, victims)
        elif phase.kind is PhaseKind.FLASH_CROWD:
            yield from self._subscribes(phase.name, int(params.get("subscriptions", 0)))
            yield from self._publishes(phase.name, int(params.get("publications", 0)))
        elif phase.kind is PhaseKind.STEADY_STATE:
            yield from self._steady_state(phase.name, params)
        else:  # pragma: no cover - PhaseSpec validates kinds
            raise ValueError(f"unknown phase kind {phase.kind!r}")

    def schedule(self) -> Iterator[_Operation]:
        """Pass 1: the operations of the whole timeline, in event order."""
        for phase in self.spec.phases:
            yield from self._phase_operations(phase)

    # ------------------------------------------------------------------
    # Pass 2: the workload stream fills in content, in event order
    # ------------------------------------------------------------------
    def materialise(self, operations: Iterator[_Operation]) -> None:
        """Pass 2: append one event per operation, content by maximal runs."""
        workload = self.workload
        events = self.events
        for action, run in groupby(operations, key=itemgetter(1)):
            run = list(run)
            # one (subscription, publication, subscription_id) per operation
            if action is EventAction.SUBSCRIBE:
                payloads = [
                    (
                        workload.subscription(
                            subscriber=client, subscription_id=identifier
                        ),
                        None,
                        None,
                    )
                    for _, _, client, identifier in run
                ]
            elif action is EventAction.PUBLISH:
                publications = Publication.from_matrix(
                    workload.schema,
                    workload.publication_points(len(run)),
                    publication_ids=[identifier for _, _, _, identifier in run],
                    publishers=[client for _, _, client, _ in run],
                )
                payloads = [(None, publication, None) for publication in publications]
            else:
                payloads = [(None, None, identifier) for _, _, _, identifier in run]
            for (phase, _, client, _), payload in zip(run, payloads):
                events.append(
                    ScenarioEvent(len(events) + 1, phase, action, client, *payload)
                )


def compile_scenario(spec: ScenarioSpec, seed: int = 0) -> CompiledScenario:
    """Compile ``spec`` into a deterministic event stream for ``seed``."""
    streams = derive_streams(seed)
    topology_rng = ensure_rng(streams["topology"])
    workload_rng = ensure_rng(streams["workload"])
    mix_rng = ensure_rng(streams["mix"])

    edges = spec.topology.build(rng=topology_rng)
    workload = make_workload(spec.workload, spec.workload_params, workload_rng)

    builder = _EventBuilder(spec, workload, mix_rng)
    # Clients are attached round-robin over the brokers in edge-list order
    # (stable across runs because the edge list itself is deterministic).
    broker_order: List[str] = []
    for left, right in edges:
        for broker in (left, right):
            if broker not in broker_order:
                broker_order.append(broker)
    if not broker_order:
        broker_order = ["B1"]
    clients = {
        client: broker_order[index % len(broker_order)]
        for index, client in enumerate(builder.client_names)
    }

    builder.materialise(builder.schedule())

    return CompiledScenario(
        spec=spec,
        seed=seed,
        schema=workload.schema,
        edges=edges,
        clients=clients,
        events=tuple(builder.events),
    )
