"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes a *dynamic* publish/subscribe workload:
which attribute-space workload generates subscriptions and publications,
which broker overlay carries them, which covering policy the brokers apply,
and — the part the static ``repro.workloads`` generators cannot express —
a timeline of :class:`PhaseSpec` phases: subscribe ramps, unsubscribe
storms, publication bursts, flash crowds and steady-state mixes.

Specs are plain data.  Together with a seed they compile into a
deterministic event stream (see :mod:`repro.scenarios.events`); the same
``(spec, seed)`` pair always yields the same stream, which is what makes
every scenario run replayable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.broker.sim import parse_latency_model
from repro.broker.topologies import (
    grid_topology,
    line_topology,
    random_tree_topology,
    star_topology,
)
from repro.core.policies import DEFAULT_MERGE_BUDGET, policy_value, resolve_policy
from repro.core.store import CoveringPolicyName
from repro.matching.matcher import check_backend_label
from repro.utils.rng import RandomSource
from repro.utils.validation import require_delta, require_iteration_cap

__all__ = ["PhaseKind", "PhaseSpec", "TopologySpec", "ScenarioSpec"]


class PhaseKind(str, Enum):
    """The kinds of workload phases a scenario timeline can contain."""

    #: ``count`` new subscriptions arrive, spread over the client pool
    SUBSCRIBE_RAMP = "subscribe_ramp"
    #: a ``fraction`` of the active subscriptions (or a fixed ``count``)
    #: is cancelled in one go
    UNSUBSCRIBE_STORM = "unsubscribe_storm"
    #: ``count`` publications arrive back to back
    PUBLISH_BURST = "publish_burst"
    #: ``subscriptions`` new subscribers pile in, immediately followed by
    #: ``publications`` publications — the flash-crowd pattern
    FLASH_CROWD = "flash_crowd"
    #: ``ops`` operations drawn from a publish/subscribe/unsubscribe mix
    STEADY_STATE = "steady_state"


#: parameters each phase kind understands (used for validation)
_PHASE_PARAMS: Dict[PhaseKind, Tuple[str, ...]] = {
    PhaseKind.SUBSCRIBE_RAMP: ("count",),
    PhaseKind.UNSUBSCRIBE_STORM: ("fraction", "count"),
    PhaseKind.PUBLISH_BURST: ("count",),
    PhaseKind.FLASH_CROWD: ("subscriptions", "publications"),
    PhaseKind.STEADY_STATE: (
        "ops",
        "publish_weight",
        "subscribe_weight",
        "unsubscribe_weight",
    ),
}


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a scenario timeline.

    Parameters
    ----------
    name:
        Unique (within the scenario) phase label, used in reports/traces.
    kind:
        What the phase does (see :class:`PhaseKind`).
    params:
        Kind-specific parameters, e.g. ``{"count": 100}`` for a ramp or
        ``{"fraction": 0.5}`` for a storm.
    """

    name: str
    kind: PhaseKind
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", PhaseKind(self.kind))
        object.__setattr__(self, "params", dict(self.params))
        allowed = _PHASE_PARAMS[self.kind]
        unknown = set(self.params) - set(allowed)
        if unknown:
            raise ValueError(
                f"phase {self.name!r} ({self.kind.value}) does not accept "
                f"parameters {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        for size in ("count", "ops", "subscriptions", "publications"):
            # negated so that NaN is rejected too
            if size in self.params and not 0.0 <= float(self.params[size]) < math.inf:
                raise ValueError(
                    f"phase {self.name!r}: {size!r} must be finite and "
                    f"non-negative, got {self.params[size]!r}"
                )
        if self.kind is PhaseKind.UNSUBSCRIBE_STORM:
            if ("fraction" in self.params) == ("count" in self.params):
                raise ValueError(
                    f"phase {self.name!r}: an unsubscribe storm needs exactly "
                    "one of 'fraction' or 'count'"
                )
            # negated so that NaN is rejected too
            if not 0.0 <= float(self.params.get("fraction", 0.0)) <= 1.0:
                raise ValueError(
                    f"phase {self.name!r}: a storm 'fraction' must lie in "
                    f"[0, 1], got {self.params['fraction']!r}"
                )
        if self.kind is PhaseKind.STEADY_STATE:
            weights = [
                float(self.params.get("publish_weight", 0.6)),
                float(self.params.get("subscribe_weight", 0.3)),
                float(self.params.get("unsubscribe_weight", 0.1)),
            ]
            # negated so that NaN is rejected too
            if not (
                all(0.0 <= weight < math.inf for weight in weights)
                and 0.0 < sum(weights) < math.inf
            ):
                raise ValueError(
                    f"phase {self.name!r}: steady-state weights must be "
                    f"finite and non-negative with a positive sum, got {weights}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dictionary."""
        return {"name": self.name, "kind": self.kind.value, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PhaseSpec":
        """Deserialize a phase produced by :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            kind=PhaseKind(payload["kind"]),
            params=payload.get("params", {}),
        )


@dataclass(frozen=True)
class TopologySpec:
    """A broker overlay described by shape rather than edge list.

    ``kind`` is one of ``line``, ``star``, ``grid`` or ``random-tree``;
    ``size`` is the broker count (for grids, ``rows``/``columns`` are used
    instead).  ``random-tree`` draws its shape from the scenario's derived
    topology RNG stream, so it too is deterministic per ``(spec, seed)``.
    """

    kind: str = "line"
    size: int = 3
    rows: int = 0
    columns: int = 0

    _BUILDERS = ("line", "star", "grid", "random-tree")

    def __post_init__(self) -> None:
        if self.kind not in self._BUILDERS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; expected one of "
                f"{self._BUILDERS}"
            )
        if self.kind == "grid" and (self.rows < 1 or self.columns < 1):
            raise ValueError("grid topologies need positive rows and columns")
        if self.kind != "grid" and self.size < 1:
            raise ValueError("a topology needs at least one broker")

    def build(self, rng: RandomSource = None) -> List[Tuple[str, str]]:
        """Materialise the edge list."""
        if self.kind == "line":
            return line_topology(self.size)
        if self.kind == "star":
            return star_topology(self.size)
        if self.kind == "grid":
            return grid_topology(self.rows, self.columns)
        return random_tree_topology(self.size, rng=rng)

    @property
    def broker_count(self) -> int:
        """Number of brokers the topology will contain."""
        if self.kind == "grid":
            return self.rows * self.columns
        return self.size

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dictionary."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "grid":
            payload["rows"] = self.rows
            payload["columns"] = self.columns
        else:
            payload["size"] = self.size
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopologySpec":
        """Deserialize a topology produced by :meth:`to_dict`."""
        return cls(
            kind=payload.get("kind", "line"),
            size=payload.get("size", 3),
            rows=payload.get("rows", 0),
            columns=payload.get("columns", 0),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative dynamic-workload scenario.

    Attributes
    ----------
    name:
        Registry identifier (e.g. ``t1-churn``).
    tier:
        Scale tier, ``T0`` (smoke) through ``T3`` (stress).
    description:
        One-line human description shown by ``repro-scenarios list``.
    workload:
        Name of the subscription/publication generator driving the
        scenario: ``bike-rental``, ``grid``, ``comparison`` or one of the
        paper-figure streams (``paper-redundant``, ``paper-noncover``,
        ``paper-extreme``).
    workload_params:
        Extra keyword parameters for the workload factory.
    topology:
        Broker overlay shape.
    clients:
        Number of clients attached (round-robin) to the brokers.
    policy:
        Reduction strategy every broker applies (``none``, ``pairwise``,
        ``group``, ``merging`` or ``hybrid``).  Like the latency model
        it is recorded in traces; the pre-existing values serialize
        exactly as they always did, so their trace hashes are unchanged.
    merge_budget:
        False-volume budget of the merging strategies.  Folded into the
        serialized spec (and therefore the trace hash) only when
        non-default, so specs predating the merging strategies keep their
        hashes.
    delta:
        Error bound of the probabilistic checker (``group`` policy).
    max_iterations:
        RSPC guess cap per covering decision.
    engine_backend:
        A matcher-backend label (one of
        :data:`~repro.matching.matcher.BACKEND_NAMES`).  It is validated,
        folded into the trace hash when non-default, recorded in traces
        and echoed in :class:`~repro.scenarios.runner.ScenarioReport`,
        but it selects nothing: every run matches with the one
        :class:`~repro.core.arena.Matcher`.  It is kept because the
        benchmark's specs and recorded traces carry it, and goes with
        ROADMAP item 4, Half B.
    latency_model:
        Per-link hop latency model of the broker network's simulation
        kernel (``"zero"``, ``"fixed[:delay]"`` or
        ``"lognormal[:mu,sigma]"`` — see
        :func:`~repro.broker.sim.make_latency_model`).  It is recorded in
        traces (and folded into the trace hash
        when non-default) so replays reproduce the original run's timed
        metrics exactly.  Ignored by the ``engine`` runner backend.
    phases:
        The workload timeline.
    tags:
        Free-form labels (used by ``list`` filtering and CI selection).
    """

    name: str
    tier: str = "T0"
    description: str = ""
    workload: str = "bike-rental"
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    topology: TopologySpec = field(default_factory=TopologySpec)
    clients: int = 8
    policy: CoveringPolicyName = CoveringPolicyName.GROUP
    merge_budget: float = DEFAULT_MERGE_BUDGET
    delta: float = 1e-6
    max_iterations: int = 200
    engine_backend: str = "linear"
    latency_model: str = "zero"
    phases: Sequence[PhaseSpec] = ()
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", resolve_policy(self.policy))
        if self.merge_budget < 0:
            raise ValueError("merge_budget must be non-negative")
        require_delta(self.delta)
        require_iteration_cap(self.max_iterations)
        check_backend_label(self.engine_backend)
        parse_latency_model(self.latency_model)  # validates, raises ValueError
        object.__setattr__(self, "workload_params", dict(self.workload_params))
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.clients < 1:
            raise ValueError("a scenario needs at least one client")
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} has no phases")
        seen: set = set()
        for phase in self.phases:
            if phase.name in seen:
                raise ValueError(
                    f"scenario {self.name!r} has duplicate phase {phase.name!r}"
                )
            seen.add(phase.name)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dictionary (JSON-safe).

        The default ``engine_backend``, ``latency_model`` and
        ``merge_budget`` are omitted so that the serialized form — and
        therefore the trace hash bound to it — of every spec predating
        those seams is unchanged; only a non-default value (which
        genuinely changes the replay's metrics) alters the hash.
        """
        payload: Dict[str, Any] = {
            "name": self.name,
            "tier": self.tier,
            "description": self.description,
            "workload": self.workload,
            "workload_params": dict(self.workload_params),
            "topology": self.topology.to_dict(),
            "clients": self.clients,
            "policy": policy_value(self.policy),
            "delta": self.delta,
            "max_iterations": self.max_iterations,
            "phases": [phase.to_dict() for phase in self.phases],
            "tags": list(self.tags),
        }
        if self.engine_backend != "linear":
            payload["engine_backend"] = self.engine_backend
        if self.latency_model != "zero":
            payload["latency_model"] = self.latency_model
        if self.merge_budget != DEFAULT_MERGE_BUDGET:
            payload["merge_budget"] = self.merge_budget
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Deserialize a scenario produced by :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            tier=payload.get("tier", "T0"),
            description=payload.get("description", ""),
            workload=payload.get("workload", "bike-rental"),
            workload_params=payload.get("workload_params", {}),
            topology=TopologySpec.from_dict(payload.get("topology", {})),
            clients=payload.get("clients", 8),
            policy=payload.get("policy", "group"),
            merge_budget=payload.get("merge_budget", DEFAULT_MERGE_BUDGET),
            delta=payload.get("delta", 1e-6),
            max_iterations=payload.get("max_iterations", 200),
            engine_backend=payload.get("engine_backend", "linear"),
            latency_model=payload.get("latency_model", "zero"),
            phases=[PhaseSpec.from_dict(item) for item in payload.get("phases", [])],
            tags=tuple(payload.get("tags", ())),
        )
