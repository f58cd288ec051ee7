"""Reproduction of *Efficient Probabilistic Subsumption Checking for
Content-based Publish/Subscribe Systems* (Ouksel, Jurca, Podnar, Aberer —
Middleware 2006).

The package is organised in layers:

``repro.model``
    The data model: attribute domains, intervals, subscriptions
    (axis-aligned hyper-rectangles) and publications (points).

``repro.core``
    The paper's contribution: the conflict table, the probabilistic RSPC
    algorithm, the MCS reduction algorithm, fast deterministic decisions,
    the error model (``rho_w``, ``d``, Eq. 1 and Eq. 2) and the pair-wise
    baseline.

``repro.matching``
    The Algorithm 5 matching engine and the one signed-column matcher
    behind every publication lookup.

``repro.broker``
    A distributed broker-overlay simulator with reverse-path forwarding and
    pluggable subscription-covering policies.

``repro.workloads``
    Subscription/publication generators for every evaluation scenario of the
    paper plus two domain workloads (bike rental, Grid resource discovery).

``repro.experiments``
    The experiment harness that regenerates every figure of the paper's
    evaluation section.

``repro.scenarios``
    Registry-driven, replayable *dynamic* workload scenarios — phase
    timelines (subscribe ramps, unsubscribe storms, publication bursts,
    flash crowds, steady-state mixes) compiled into deterministic event
    streams and executed against the broker overlay with per-phase
    metrics (``python -m repro.scenarios``).
"""

from repro.model import (
    AttributeDomain,
    CategoricalDomain,
    IntegerDomain,
    Interval,
    Publication,
    Schema,
    Subscription,
    TimestampDomain,
)
from repro.core import (
    ConflictTable,
    PairwiseCoverageChecker,
    SubsumptionChecker,
    SubsumptionResult,
    compute_point_witness_probability,
    compute_required_iterations,
)
from repro.matching import MatchingEngine
from repro.broker import BrokerNetwork, CoveringPolicy

__version__ = "1.0.0"

__all__ = [
    "AttributeDomain",
    "BrokerNetwork",
    "CategoricalDomain",
    "ConflictTable",
    "CoveringPolicy",
    "IntegerDomain",
    "Interval",
    "MatchingEngine",
    "PairwiseCoverageChecker",
    "Publication",
    "Schema",
    "Subscription",
    "SubsumptionChecker",
    "SubsumptionResult",
    "TimestampDomain",
    "compute_point_witness_probability",
    "compute_required_iterations",
    "__version__",
]
