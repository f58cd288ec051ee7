"""The paper's core algorithms.

* :class:`ConflictTable` — Definition 2, the ``k x 2m`` table relating a
  subscription ``s`` to the negated simple predicates of a subscription set.
* :mod:`repro.core.witness` — point/polyhedron witnesses, ``I(s)``,
  ``I(sw)`` and ``rho_w`` (Algorithm 2).
* :mod:`repro.core.error_model` — Eq. 1 (``delta = (1 - rho_w)^d``),
  the required number of RSPC trials ``d`` and Eq. 2 (delivery probability
  along a broker chain).
* :mod:`repro.core.rspc` — Algorithm 1, the Monte Carlo Random Simple
  Predicates Cover.
* :mod:`repro.core.mcs` — Algorithm 3, the Minimized Cover Set reduction.
* :mod:`repro.core.decisions` — Algorithm 4, fast deterministic decisions.
* :class:`PairwiseCoverageChecker` — the classical pair-wise baseline.
* :class:`SubsumptionChecker` — the full pipeline used by applications.
* :class:`SubscriptionStore` — maintains active/covered subscription sets
  under a configurable covering policy.
* :class:`Matcher` and :class:`CandidateSet` — subscription bounds as
  signed columns: a store's two pools (and every publication lookup), and
  the immutable candidate snapshots the checker reads.
* :func:`exact_group_cover` — an exact (exponential-time) oracle used for
  ground truth in tests and false-negative accounting.
"""

from repro.core.arena import CandidateSet, Matcher, as_candidate_set
from repro.core.conflict_table import ConflictTable, EntryRef, EntrySide
from repro.core.decisions import (
    FastDecision,
    FastDecisionKind,
    detect_pairwise_cover,
    detect_polyhedron_witness,
)
from repro.core.error_model import (
    chain_delivery_probability,
    error_probability,
    compute_required_iterations,
    required_iterations,
)
from repro.core.exact import exact_group_cover, uncovered_region
from repro.core.mcs import MCSResult, minimized_cover_set
from repro.core.merging import (
    MergeResult,
    merge_pair,
)
from repro.core.pairwise import PairwiseCoverageChecker, PairwiseResult
from repro.core.policies import (
    DEFAULT_MERGE_BUDGET,
    ReductionDecision,
    ReductionPolicyName,
    ReductionStrategy,
    STRATEGY_NAMES,
    make_strategy,
    register_strategy,
    strategy_names,
)
from repro.core.results import Answer, DecisionMethod, SubsumptionResult
from repro.core.rspc import RSPCOutcome, RSPCResult, run_rspc
from repro.core.store import CoveringPolicyName, SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.core.witness import (
    WitnessEstimate,
    compute_point_witness_probability,
    estimate_smallest_witness,
    find_point_witness,
    find_polyhedron_witness_greedy,
)

__all__ = [
    "Answer",
    "CandidateSet",
    "ConflictTable",
    "CoveringPolicyName",
    "DecisionMethod",
    "EntryRef",
    "EntrySide",
    "FastDecision",
    "FastDecisionKind",
    "MCSResult",
    "Matcher",
    "MergeResult",
    "PairwiseCoverageChecker",
    "PairwiseResult",
    "RSPCOutcome",
    "RSPCResult",
    "DEFAULT_MERGE_BUDGET",
    "ReductionDecision",
    "ReductionPolicyName",
    "ReductionStrategy",
    "STRATEGY_NAMES",
    "make_strategy",
    "register_strategy",
    "strategy_names",
    "SubscriptionStore",
    "SubsumptionChecker",
    "as_candidate_set",
    "SubsumptionResult",
    "WitnessEstimate",
    "chain_delivery_probability",
    "compute_point_witness_probability",
    "compute_required_iterations",
    "detect_pairwise_cover",
    "detect_polyhedron_witness",
    "error_probability",
    "estimate_smallest_witness",
    "exact_group_cover",
    "find_point_witness",
    "find_polyhedron_witness_greedy",
    "merge_pair",
    "minimized_cover_set",
    "required_iterations",
    "run_rspc",
    "uncovered_region",
]
