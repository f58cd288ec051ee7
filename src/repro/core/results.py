"""Result types returned by the subsumption pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.model.subscriptions import Subscription

__all__ = ["Answer", "DecisionMethod", "SubsumptionResult"]


class Answer(str, Enum):
    """Outcome of a subsumption question ``s ⊑ S``."""

    #: definitely covered (deterministic evidence, e.g. pair-wise cover)
    COVERED = "covered"
    #: probably covered — RSPC exhausted its trials without a witness
    PROBABLY_COVERED = "probably_covered"
    #: definitely not covered (a witness was found)
    NOT_COVERED = "not_covered"

    @property
    def is_covered(self) -> bool:
        """Whether the answer treats ``s`` as covered (and thus redundant)."""
        return self in (Answer.COVERED, Answer.PROBABLY_COVERED)


class DecisionMethod(str, Enum):
    """Which stage of the pipeline produced the answer."""

    #: there are no candidate subscriptions at all
    EMPTY_CANDIDATE_SET = "empty_candidate_set"
    #: Corollary 1 — a single candidate covers ``s``
    PAIRWISE_COVER = "pairwise_cover"
    #: Corollary 3 — sorted conflict-table rows prove a polyhedron witness
    POLYHEDRON_WITNESS = "polyhedron_witness"
    #: the MCS reduction removed every candidate
    EMPTY_MCS = "empty_mcs"
    #: RSPC guessed a point witness
    POINT_WITNESS = "point_witness"
    #: RSPC exhausted its trials → probabilistic YES
    RSPC_EXHAUSTED = "rspc_exhausted"
    #: the exact oracle decided (only when explicitly requested)
    EXACT = "exact"


@dataclass
class SubsumptionResult:
    """Rich outcome of a group-subsumption check.

    Attributes
    ----------
    answer:
        The verdict (covered / probably covered / not covered).
    method:
        Pipeline stage that produced the verdict.
    original_set_size:
        ``k`` — number of candidate subscriptions handed to the checker.
    reduced_set_size:
        Size of the candidate set after the MCS reduction (equal to
        ``original_set_size`` when MCS is disabled or never ran).
    rho_w:
        Estimated lower bound on the point-witness probability
        (``I(sw)/I(s)``); ``None`` when RSPC never ran.
    theoretical_iterations:
        The paper's ``d`` — trials needed for the requested error bound;
        may be ``inf`` when ``rho_w`` is 0.
    iterations_performed:
        Random guesses actually performed by RSPC (0 for fast decisions).
    error_bound:
        Residual probability that a "probably covered" verdict is wrong,
        ``(1 - rho_w)^iterations_performed``; 0 for deterministic verdicts.
    witness_point:
        The point witness proving non-coverage, when one was found.
    covering_row:
        Index (into the original candidate list) of the single subscription
        covering ``s`` for pair-wise decisions.
    truncated:
        Whether RSPC stopped early because of the ``max_iterations`` cap,
        i.e. the verdict's error bound is weaker than requested.
    details:
        Free-form extra diagnostics (timings, per-stage notes).
    subscription, candidates:
        For a "probably covered" verdict, the tested subscription and the
        candidate sequence it was decided against (references, not
        copies; a store's candidates are an immutable snapshot).  With
        ``details["mcs_kept_rows"]`` an audit can re-decide the verdict
        exactly.  ``None`` for every other verdict.
    """

    answer: Answer
    method: DecisionMethod
    original_set_size: int
    reduced_set_size: int
    rho_w: Optional[float] = None
    theoretical_iterations: Optional[float] = None
    iterations_performed: int = 0
    error_bound: float = 0.0
    witness_point: Optional[np.ndarray] = None
    covering_row: Optional[int] = None
    truncated: bool = False
    details: Dict[str, Any] = field(default_factory=dict)
    subscription: Optional[Subscription] = None
    candidates: Optional[Sequence[Subscription]] = None

    # ------------------------------------------------------------------
    # Convenience views
    # ------------------------------------------------------------------
    @property
    def covered(self) -> bool:
        """Whether ``s`` is considered covered (deterministic or not)."""
        return self.answer.is_covered
