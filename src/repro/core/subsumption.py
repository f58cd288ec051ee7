"""The full probabilistic subsumption pipeline.

:class:`SubsumptionChecker` wires the paper's building blocks together in
the order of Algorithm 4:

1. build the conflict table (``O(m·k)``);
2. fast deterministic decisions — pair-wise cover (Corollary 1) and the
   sorted-row polyhedron-witness condition (Corollary 3);
3. the MCS reduction (Algorithm 3); an empty reduced set is a definite NO;
4. the ``rho_w`` estimate (Algorithm 2) and the trial budget ``d`` for the
   requested error probability ``delta`` (Eq. 1);
5. RSPC (Algorithm 1) on the reduced set — a definite NO when a point
   witness is found, otherwise a probabilistic YES.

Every stage can be toggled so the experiments can quantify its individual
contribution (the ±MCS curves of Figures 7 and 9, the fast-decision
ablation of the micro-benchmarks).

The candidate screen.  Wherever MCS applies, step 1 is preceded by one
box test on the snapshot's signed matrix
(:meth:`CandidateSet.meeting <repro.core.arena.CandidateSet.meeting>`):
the candidates that share no point with ``s`` are dropped and the table
is built over the rest.  This is MCS pass 1, hoisted — a candidate
disjoint from ``s`` owns a conflict-free entry (the one on the separating
axis, whose slice is all of ``s`` and so meets every other entry's), so
Proposition 4 removes it whatever else is in the set, and because both
removal rules are monotone under removals the fixed point reached from
the smaller set is the same ``S'``.  Same verdict, same kept candidates,
same ``rho_w`` and the same random draws; what shrinks is the ``k`` every
stage pays for.  Row indices in the result (``covering_row``,
``mcs_kept_rows``) are positions in the caller's sequence, and
``details["screened_size"]`` records how many candidates reached the
table.  The one observable shift is a label: Corollary 3 can fire on the
screened table (``polyhedron_witness``) where the full one would have
reached ``empty_mcs`` — both a definite NO without a draw.  With
``use_mcs=False`` the paper's ``S`` is kept whole, so the ±MCS ablation
curves compare what they always compared.

Candidates may be handed over as a plain sequence of subscriptions
(snapshotted on entry) or as a
:class:`~repro.core.arena.CandidateSet` snapshot, in which case the
conflict table is built zero-copy from the snapshot's signed bound
matrix.  Every call runs the pipeline: nothing is memoised, so each
verdict is computed — and each RSPC draw consumed — in call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import CandidateSet, as_candidate_set
from repro.core.conflict_table import ConflictTable
from repro.core.decisions import (
    detect_pairwise_cover,
    detect_polyhedron_witness,
)
from repro.core.error_model import required_iterations
from repro.core.mcs import MCSResult, minimized_cover_set
from repro.core.results import Answer, DecisionMethod, SubsumptionResult
from repro.core.rspc import RSPCOutcome, run_rspc
from repro.core.witness import estimate_smallest_witness
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_delta, require_iteration_cap

__all__ = ["SubsumptionChecker"]


@dataclass
class _PreparedInstance:
    """Stages 1+3+4 of Algorithm 4 for one ``(s, S)`` instance.

    Shared between :meth:`SubsumptionChecker.check` (which follows up
    with RSPC) and :meth:`SubsumptionChecker.theoretical_d` (which only
    needs the trial budget), so the two cannot drift.
    """

    table: ConflictTable
    reduction: Optional[MCSResult]
    reduced_rows: Tuple[int, ...]
    estimate: Optional[object] = None
    rho_w: float = 0.0
    theoretical: float = float("inf")

    @property
    def mcs_empty(self) -> bool:
        """Whether the MCS reduction removed every candidate."""
        return self.reduction is not None and not self.reduced_rows


@dataclass
class SubsumptionChecker:
    """Configurable group-subsumption checker.

    Parameters
    ----------
    delta:
        Target probability of a false "covered" verdict (Eq. 1).  The
        paper's experiments use ``1e-3`` … ``1e-10``.
    max_iterations:
        Hard cap on RSPC guesses per check.  The theoretical ``d`` can be
        astronomically large for tiny ``delta``; the cap keeps the checker
        practical and is reported through ``SubsumptionResult.truncated``.
    use_mcs:
        Whether to run the Minimized Cover Set reduction (Algorithm 3).
    use_fast_decisions:
        Whether to apply the deterministic short-circuits of Algorithm 4.
    rng:
        Seed or generator for the random guesses; each :meth:`check` call
        draws from this stream, so a seeded checker is fully reproducible.
    """

    delta: float = 1e-6
    max_iterations: int = 10_000
    use_mcs: bool = True
    use_fast_decisions: bool = True
    rng: RandomSource = None

    #: always 0 — read around every traced ``check`` by ``bench/layers.py``
    cache_hits = cache_misses = 0

    def __post_init__(self) -> None:
        require_delta(self.delta)
        require_iteration_cap(self.max_iterations)
        self._rng = ensure_rng(self.rng)

    # ------------------------------------------------------------------
    # Shared stages 1 + 3 + 4
    # ------------------------------------------------------------------
    @staticmethod
    def _build_table(
        subscription: Subscription, candidates: CandidateSet, screen: bool
    ) -> Tuple[Optional[ConflictTable], Optional[np.ndarray]]:
        """The candidate screen and stage 1: ``(table, rows)``.

        With ``screen`` the table relates ``subscription`` to the
        candidates it shares a point with; ``rows`` maps the table's rows
        back to positions in ``candidates`` (``None`` when nothing was
        dropped — the table then shares the snapshot's matrix), and the
        table itself is ``None`` when nothing was left.
        """
        rows = None
        if screen:
            rows = candidates.meeting(subscription).nonzero()[0]
            if not rows.size:
                return None, rows
            if rows.size == len(candidates):
                rows = None
        return ConflictTable(subscription, candidates, rows), rows

    def _prepare(self, table: ConflictTable, use_mcs: bool) -> _PreparedInstance:
        """Stages 3 and 4: MCS reduction plus the ``rho_w``/``d`` estimate."""
        if use_mcs:
            reduction = minimized_cover_set(table)
            reduced_rows = reduction.kept_rows
            if not reduced_rows:
                return _PreparedInstance(table, reduction, ())
            estimate_rows: Optional[Sequence[int]] = list(reduced_rows)
        else:
            reduction = None
            reduced_rows = tuple(range(table.k))
            estimate_rows = None
        estimate = estimate_smallest_witness(table, estimate_rows)
        rho_w = estimate.rho_w
        theoretical = (
            required_iterations(self.delta, rho_w) if rho_w > 0 else float("inf")
        )
        return _PreparedInstance(
            table, reduction, reduced_rows, estimate, rho_w, theoretical
        )

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def check(
        self,
        subscription: Subscription,
        candidates: Sequence[Subscription],
    ) -> SubsumptionResult:
        """Decide whether ``subscription`` is covered by ``candidates``.

        Returns a :class:`SubsumptionResult` with the verdict, the stage
        that produced it and the cost accounting used by the experiments.
        """
        if not hasattr(candidates, "__len__"):
            candidates = tuple(candidates)  # tolerate iterator inputs
        k = len(candidates)
        if k == 0:
            return SubsumptionResult(
                answer=Answer.NOT_COVERED,
                method=DecisionMethod.EMPTY_CANDIDATE_SET,
                original_set_size=0,
                reduced_set_size=0,
            )

        table, rows = self._build_table(
            subscription, as_candidate_set(candidates), self.use_mcs
        )
        if table is None:
            # Nothing meets ``s`` — what MCS makes of k disjoint candidates.
            return SubsumptionResult(
                answer=Answer.NOT_COVERED,
                method=DecisionMethod.EMPTY_MCS,
                original_set_size=k,
                reduced_set_size=0,
                details={"screened_size": 0},
            )
        details = {"screened_size": table.k}

        # --- Stage 2: fast deterministic decisions -------------------
        if self.use_fast_decisions:
            pairwise = detect_pairwise_cover(table)
            if pairwise is not None:
                covering_row = pairwise.covering_row
                return SubsumptionResult(
                    answer=Answer.COVERED,
                    method=DecisionMethod.PAIRWISE_COVER,
                    original_set_size=k,
                    reduced_set_size=k,
                    covering_row=(
                        covering_row if rows is None else int(rows[covering_row])
                    ),
                    details=details,
                )
            witness = detect_polyhedron_witness(table)
            if witness is not None:
                return SubsumptionResult(
                    answer=Answer.NOT_COVERED,
                    method=DecisionMethod.POLYHEDRON_WITNESS,
                    original_set_size=k,
                    reduced_set_size=k,
                    details=details,
                )

        # --- Stages 3 + 4: MCS reduction and error model --------------
        prepared = self._prepare(table, self.use_mcs)
        reduction = prepared.reduction
        if reduction is not None:
            details["mcs_passes"] = reduction.iterations
        if prepared.mcs_empty:
            return SubsumptionResult(
                answer=Answer.NOT_COVERED,
                method=DecisionMethod.EMPTY_MCS,
                original_set_size=k,
                reduced_set_size=0,
                details=details,
            )

        reduced_rows = prepared.reduced_rows
        reduced_candidates = (
            reduction.kept if reduction is not None else table.candidates
        )
        rho_w = prepared.rho_w
        theoretical = prepared.theoretical

        # --- Stage 5: RSPC ---------------------------------------------
        rspc = run_rspc(
            subscription,
            reduced_candidates,
            rho_w=rho_w,
            delta=self.delta,
            rng=self._rng,
            max_iterations=self.max_iterations,
            bounds=table.signed_bounds(
                reduced_rows if reduction is not None else None
            ),
        )

        details["witness_estimate"] = prepared.estimate
        details["rspc_outcome"] = rspc.outcome.value
        if reduction is not None:
            # The minimized cover set the verdict was actually computed
            # against, as positions in the caller's sequence — the minimal
            # dependency set of a covered verdict (consumed by the
            # reduction-strategy layer).
            details["mcs_kept_rows"] = (
                reduced_rows
                if rows is None
                else tuple(rows[list(reduced_rows)].tolist())
            )

        if rspc.outcome is RSPCOutcome.WITNESS_FOUND:
            return SubsumptionResult(
                answer=Answer.NOT_COVERED,
                method=DecisionMethod.POINT_WITNESS,
                original_set_size=k,
                reduced_set_size=len(reduced_candidates),
                rho_w=rho_w,
                theoretical_iterations=theoretical,
                iterations_performed=rspc.iterations_performed,
                witness_point=rspc.witness_point,
                truncated=rspc.truncated,
                details=details,
            )

        return SubsumptionResult(
            answer=Answer.PROBABLY_COVERED,
            method=DecisionMethod.RSPC_EXHAUSTED,
            original_set_size=k,
            reduced_set_size=len(reduced_candidates),
            rho_w=rho_w,
            theoretical_iterations=theoretical,
            iterations_performed=rspc.iterations_performed,
            error_bound=rspc.error_bound,
            truncated=rspc.truncated,
            details=details,
        )

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def theoretical_d(
        self,
        subscription: Subscription,
        candidates: Sequence[Subscription],
        apply_mcs: Optional[bool] = None,
    ) -> float:
        """The paper's ``d`` for this instance without running RSPC.

        Used by the Figure 7/9 experiments which plot the theoretical trial
        budget with and without the MCS reduction.  Shares the candidate
        screen and stages 1/3/4 with :meth:`check` through
        :meth:`_build_table` and :meth:`_prepare`.
        """
        if not hasattr(candidates, "__len__"):
            candidates = tuple(candidates)  # tolerate iterator inputs
        if not len(candidates):
            return 0.0
        use_mcs = self.use_mcs if apply_mcs is None else apply_mcs
        table = self._build_table(
            subscription, as_candidate_set(candidates), use_mcs
        )[0]
        if table is None:
            return 0.0
        prepared = self._prepare(table, use_mcs)
        if prepared.mcs_empty:
            return 0.0
        if prepared.rho_w <= 0:
            return float("inf")
        return prepared.theoretical
