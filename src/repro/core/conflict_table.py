"""The conflict table (Definition 2).

Given a new subscription ``s`` and a set ``S = {s_1 … s_k}`` of existing
subscriptions, the conflict table ``T`` is a ``k x 2m`` table whose entry
``T_i^j`` holds the negated simple predicate ``¬s_i^j`` whenever
``s ∧ ¬s_i^j`` is satisfiable, and is *undefined* otherwise.  With the
range representation used throughout the paper there are exactly two simple
predicates per attribute (a lower and an upper bound), so every entry is
identified by ``(row, attribute, side)`` where ``side`` is ``LOW`` for the
negation ``x_j < low_i^j`` and ``HIGH`` for ``x_j > high_i^j``.

Building the table costs ``O(m · k)`` (Definition 2).  The table then
supports everything the rest of the pipeline needs:

* per-row counts ``t_i`` of defined entries (Corollaries 1–3),
* detection of *conflicting* pairs of entries and per-row conflict-free
  counts ``fc_i`` (Definition 5, Proposition 3) for the MCS reduction,
* per-attribute minimum uncovered gaps used by the ``rho_w`` estimator
  (Algorithm 2).

Layout.  A HIGH entry is exactly a LOW entry of the mirrored axis
``x -> -x``, so the table stores one *signed, attribute-major* matrix
``Q`` of shape ``(2m, k)``: rows ``0..m-1`` hold the candidates' lower
bounds, rows ``m..2m-1`` their **negated** upper bounds, and the
subscription's own bounds are mirrored the same way.  Every stage —
``defined``, the slice ends, the conflict thresholds, the Algorithm-2
cell measures — is then one LOW-side expression over ``Q`` instead of a
LOW copy and a HIGH copy, and every reduction over the candidates runs
along the contiguous ``k`` axis.  IEEE negation is exact,
``-x - 1.0 == -(x + 1.0)`` and ``min(-a, -b) == -max(a, b)``, so each
cell is bit-identical to the two-sided formulation (pinned against
per-attribute scalar oracles by ``tests/test_subsumption_arena.py``).

``Q`` is not built here: it *is* the candidate snapshot's
:attr:`~repro.core.arena.CandidateSet.signed` matrix — shared zero-copy
when the table spans the whole snapshot, one column gather when it spans
the ``rows`` the checker's candidate screen kept.  That matrix and the
subscription's own ends (:func:`~repro.core.arena.signed_box`) arrive
*snapped inwards* (lower bounds rounded up, upper bounds down), because
every attribute domain is a finite ordered set of integer ticks and only
the ticks inside a range exist: a bound of ``4.7`` on an integer axis
admits exactly the points ``5, 6, …``, and treating it as the tick
``4.7`` would call entries defined — and conflicts present — that no
point of the domain can witness.  Everything below, the scalar gap
reference and :meth:`ConflictTable.entry_region` included, therefore
reads integer-valued bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import as_candidate_set, signed_box
from repro.model.errors import ValidationError
from repro.model.intervals import Interval
from repro.model.subscriptions import Subscription

__all__ = ["EntrySide", "EntryRef", "ConflictTable", "conflict_free_entries"]


class EntrySide(IntEnum):
    """Which simple predicate of an attribute an entry negates."""

    #: the negation ``x_j < low_i^j`` (points of ``s`` below ``s_i``'s range)
    LOW = 0
    #: the negation ``x_j > high_i^j`` (points of ``s`` above ``s_i``'s range)
    HIGH = 1


@dataclass(frozen=True)
class EntryRef:
    """Reference to one defined entry ``T_i^j`` of the conflict table."""

    row: int
    attribute: int
    side: EntrySide


def conflict_free_entries(opposing: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Boolean ``(2m, n)`` mask of the conflict-free entries among ``n``
    candidates — the one kernel behind ``fc_i`` and every MCS pass.

    ``opposing``/``threshold`` are the matrices of
    :meth:`ConflictTable._ensure_pass_cache` restricted to the ``n``
    active candidate columns (``n >= 1``).  An entry is conflict free iff
    the largest opposing bound *of any other candidate* is ``<=`` its
    threshold.  That bound is the row maximum ``top`` for every candidate
    but the one holding it, which faces the runner-up instead — so the
    test is one broadcast comparison plus a fix-up of the ``2m``
    extreme-holder cells.  (On a tie the runner-up equals ``top``, so
    which holder ``argmax`` names — the first — cannot change a cell.)
    ``opposing`` is masked and restored in place around the runner-up
    reduction rather than copied.
    """
    axes = np.arange(opposing.shape[0])
    holder = opposing.argmax(axis=1)
    top = opposing[axes, holder]
    opposing[axes, holder] = -np.inf
    runner_up = opposing.max(axis=1)
    opposing[axes, holder] = top
    free = threshold >= top[:, np.newaxis]
    free[axes, holder] = threshold[axes, holder] >= runner_up
    return free


class ConflictTable:
    """The ``k x 2m`` conflict table relating ``s`` to a subscription set.

    Parameters
    ----------
    subscription:
        The new subscription ``s`` being tested for coverage.
    candidates:
        The existing subscriptions ``s_1 … s_k`` (the disjunction ``S``):
        a :class:`~repro.core.arena.CandidateSet` snapshot, or any
        sequence of subscriptions (snapshotted here).
    rows:
        Optional positions into ``candidates``; the table then relates
        ``s`` to those candidates only, in the given order — one column
        gather of the snapshot's signed matrix.

    Notes
    -----
    All candidates must share the subscription's schema.  The table is
    immutable once built.
    """

    def __init__(
        self,
        subscription: Subscription,
        candidates: Sequence[Subscription],
        rows: Optional[Sequence[int]] = None,
    ):
        self.subscription = subscription
        schema = subscription.schema
        # The snapshot fixed one schema for all its candidates, so one
        # identity-first check replaces a per-candidate validation loop.
        snapshot = as_candidate_set(candidates)
        if snapshot.schema is not None and (
            snapshot.schema is not schema and snapshot.schema != schema
        ):
            raise ValidationError(
                "conflict table requires all subscriptions to share a schema"
            )
        self.schema = schema
        self.m = m = subscription.m

        # The signed attribute-major matrix ``Q`` (see the module
        # docstring) and ``s``'s own two ends on each signed axis.
        if rows is None:
            self.candidates = snapshot.subscriptions
            signed = snapshot.signed if self.candidates else np.empty((2 * m, 0))
        else:
            index = np.asarray(rows, dtype=np.intp)
            subscriptions = snapshot.subscriptions
            self.candidates = tuple(subscriptions[row] for row in index.tolist())
            signed = snapshot.signed.take(index, axis=1)
        self.k = len(self.candidates)
        self._signed = signed
        self._own_low, self._own_high = signed_box(subscription)

        # An entry is defined when ``s`` sticks out of ``s_i`` on that side:
        # the LOW entry T_i^{2j-1} is defined iff s has points with
        # ``x_j < low_i^j`` and the HIGH entry iff it has points with
        # ``x_j > high_i^j`` — on the signed axes both read ``Q > own low``.
        self._defined = signed > self._own_low[:, np.newaxis]
        #: ``(k, m)`` views of the defined flags, one per side
        self.defined_low = self._defined[:m].T
        self.defined_high = self._defined[m:].T

        #: number of defined entries per row (the paper's ``t_i``)
        self.row_defined_counts = self._defined.sum(axis=0)

        # Pass-invariant matrices for the MCS inner loop and the rho_w
        # estimator, built lazily on first use: tables resolved by the
        # fast deterministic decisions never pay for them.
        self._pass_cache: Optional[Tuple[np.ndarray, ...]] = None
        self._gap_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def candidate_lows(self) -> np.ndarray:
        """Per-candidate (snapped) lower bounds, a ``(k, m)`` view of ``Q``."""
        return self._signed[: self.m].T

    @property
    def candidate_highs(self) -> np.ndarray:
        """Per-candidate (snapped) upper bounds, shape ``(k, m)``."""
        return -self._signed[self.m :].T

    def _ensure_pass_cache(self) -> Tuple[np.ndarray, ...]:
        """Precompute everything of the conflict test that does not depend
        on the active candidate subset: ``(opposing, threshold, snapped)``,
        each of shape ``(2m, k)``.

        On a signed axis an entry of candidate ``i`` (negation ``x < q``,
        defined, so ``q`` exceeds ``s``'s lower end) conflicts with the
        largest *other-candidate* defined bound ``B`` of the opposite side
        (``x > B``, defined, so ``B`` is below ``s``'s upper end ``p``) iff
        no point of ``s`` lies strictly between ``B`` and ``q``.  Every
        bound is a tick (see the module docstring), so the last tick of the
        entry's slice is ``snapped = min(q-1, p)`` and the conflict is
        ``B + 1 > snapped``, i.e. ``B > snapped - 1``.

        The per-pass test is one comparison ``B <= threshold`` against a
        precomputed matrix (the ``-inf`` "no other candidate" sentinel
        passes every comparison on its own).  ``s``'s lower end does not
        enter: a defined entry's slice reaches down to it, so the slice is
        never empty — provided ``s`` itself holds a tick, which sampling
        from it requires anyway.  In particular the slice of a candidate
        lying wholly beyond ``p`` is all of ``s`` and conflicts with
        nothing, which is what lets the checker screen such candidates out
        before the table is built.
        Undefined cells get a NaN threshold, which fails every comparison,
        so no per-pass ``& defined`` is needed.  ``opposing[r]`` holds, for
        the entries of signed axis ``r``, the bounds they can conflict
        with: the masked negation of the mirrored axis ``(r + m) mod 2m``
        (``-inf`` where undefined).  ``snapped`` is reused by
        :meth:`_ensure_gap_cache`.
        """
        cache = self._pass_cache
        if cache is not None:
            return cache
        m = self.m
        signed = self._signed
        undefined = ~self._defined

        # At a few hundred candidates these passes are bound by memory
        # traffic, so temporaries are reused in place (``out=``/``putmask``).
        snapped = signed - 1.0
        np.minimum(snapped, self._own_high[:, np.newaxis], out=snapped)
        threshold = snapped - 1.0
        np.putmask(threshold, undefined, np.nan)

        opposing = np.concatenate((signed[m:], signed[:m]))
        np.negative(opposing, out=opposing)
        np.putmask(opposing, np.concatenate((undefined[m:], undefined[:m])), -np.inf)
        cache = (opposing, threshold, snapped)
        self._pass_cache = cache
        return cache

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def is_defined(self, row: int, attribute: int, side: EntrySide) -> bool:
        """Whether entry ``T_row`` for ``attribute``/``side`` is defined."""
        if side is EntrySide.LOW:
            return bool(self.defined_low[row, attribute])
        return bool(self.defined_high[row, attribute])

    def signed_bounds(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """The signed ``(2m, r)`` bound matrix of ``rows`` (default: all).

        One column gather of ``Q`` — what RSPC tests its guesses against
        (:func:`repro.core.rspc.run_rspc`'s ``bounds``).
        """
        if rows is None:
            return self._signed
        return self._signed[:, np.asarray(rows, dtype=int)]

    def _own_interval(self, attribute: int) -> Tuple[float, float]:
        """``s``'s (snapped) range on ``attribute`` as ``(low, high)``."""
        return float(self._own_low[attribute]), float(self._own_high[attribute])

    def entry_region(self, row: int, attribute: int, side: EntrySide) -> Interval:
        """Portion of ``s``'s range on ``attribute`` satisfying the entry.

        For a LOW entry this is the slice of ``s`` strictly below the
        candidate's lower bound; for a HIGH entry the slice strictly above
        the candidate's upper bound: strictness removes one tick.
        """
        if not self.is_defined(row, attribute, side):
            return Interval.empty()
        s_interval = Interval(*self._own_interval(attribute))
        if side is EntrySide.LOW:
            bound = float(self._signed[attribute, row])
            return s_interval.intersection(Interval(-math.inf, bound - 1.0))
        bound = float(-self._signed[self.m + attribute, row])
        return s_interval.intersection(Interval(bound + 1.0, math.inf))

    def defined_entries(self, row: int) -> List[EntryRef]:
        """All defined entries in ``row``."""
        entries: List[EntryRef] = []
        for attribute in range(self.m):
            if self.defined_low[row, attribute]:
                entries.append(EntryRef(row, attribute, EntrySide.LOW))
            if self.defined_high[row, attribute]:
                entries.append(EntryRef(row, attribute, EntrySide.HIGH))
        return entries

    # ------------------------------------------------------------------
    # Conflicts (Definition 5)
    # ------------------------------------------------------------------
    def entries_conflict(self, first: EntryRef, second: EntryRef) -> bool:
        """Whether two *defined* entries of different rows conflict.

        Two entries conflict when ``s ∧ entry1 ∧ entry2`` is unsatisfiable.
        With range predicates this can only happen for a LOW and a HIGH
        entry on the same attribute whose slices of ``s`` do not meet.
        """
        if first.row == second.row:
            return False
        if first.attribute != second.attribute:
            return False
        if first.side == second.side:
            return False
        low_row, high_row = (
            (first.row, second.row) if first.side is EntrySide.LOW
            else (second.row, first.row)
        )
        attribute = first.attribute
        return self._low_high_conflict(
            attribute,
            float(self._signed[attribute, low_row]),
            float(-self._signed[self.m + attribute, high_row]),
        )

    def _low_high_conflict(
        self, attribute: int, low_bound: float, high_bound: float
    ) -> bool:
        """Unsatisfiability of ``s ∧ (x < low_bound) ∧ (x > high_bound)``."""
        s_low, s_high = self._own_interval(attribute)
        lowest = max(high_bound + 1.0, s_low)
        highest = min(low_bound - 1.0, s_high)
        return highest < lowest

    # ------------------------------------------------------------------
    # rho_w support (Algorithm 2)
    # ------------------------------------------------------------------
    def minimum_gap_measures(
        self, rows: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Per-attribute minimum uncovered slice measure (Algorithm 2).

        For each attribute the estimator considers, over every candidate
        row, the measure of the slice of ``s`` left uncovered below the
        candidate's lower bound and above its upper bound, taking the
        minimum together with the full extent of ``s`` on that attribute.
        The product over attributes approximates ``I(sw)``, the size of the
        smallest polyhedron witness.

        The whole computation is a handful of array expressions over the
        table's bound matrices, replicating per cell exactly what
        ``entry_region`` + ``domain.measure`` and a floor of ``1e-12``
        compute (:meth:`_minimum_gap_measures_scalar`, the tests'
        reference): the point count ``floor(high) - ceil(low) + 1`` of the
        uncovered slice.  Bounds are already snapped, so the point count is
        ``high - low + 1``.
        """
        cells, initial = self._ensure_gap_cache()
        if rows is not None:
            cells = cells[:, np.asarray(rows, dtype=int)]
        least = cells.min(axis=1, initial=np.inf)
        m = self.m
        return np.minimum(initial, np.minimum(least[:m], least[m:]))

    def _ensure_gap_cache(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cell uncovered-slice measures, shared across row subsets.

        The ``(2m, k)`` cell measures depend only on the table, so
        Algorithm 2 restricted to any row subset is a column gather + min
        reduction over them.  ``snapped`` comes from
        :meth:`_ensure_pass_cache` — the same slice ends the MCS thresholds
        are derived from: the slice of ``s`` strictly below a candidate's
        bound on a signed axis is ``[own_low, snapped]`` (one tick
        removed).  Also returns the ``(m,)`` initial value, the full extent
        of ``s`` on each attribute.
        """
        cache = self._gap_cache
        if cache is not None:
            return cache
        snapped = self._ensure_pass_cache()[2]
        m = self.m
        own_low = self._own_low
        # point count, clamped at 0 and floored at ``1e-12`` (a single
        # ``maximum`` does both)
        cells = snapped - own_low[:, np.newaxis]
        cells += 1.0
        np.maximum(cells, 1e-12, out=cells)
        initial = -own_low[m:] - own_low[:m] + 1.0
        # Undefined entries contribute nothing to the minima.
        np.putmask(cells, ~self._defined, np.inf)
        cache = (cells, initial)
        self._gap_cache = cache
        return cache

    def _minimum_gap_measures_scalar(
        self, rows: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Per-object reference implementation, for the tests."""
        active = list(range(self.k)) if rows is None else list(rows)
        gaps = np.empty(self.m, dtype=float)
        for attribute in range(self.m):
            domain = self.schema.domain(attribute)
            minimum = domain.measure(Interval(*self._own_interval(attribute)))
            for row in active:
                if self.defined_low[row, attribute]:
                    slice_measure = domain.measure(
                        self.entry_region(row, attribute, EntrySide.LOW)
                    )
                    minimum = min(minimum, max(slice_measure, 1e-12))
                if self.defined_high[row, attribute]:
                    slice_measure = domain.measure(
                        self.entry_region(row, attribute, EntrySide.HIGH)
                    )
                    minimum = min(minimum, max(slice_measure, 1e-12))
            gaps[attribute] = minimum
        return gaps

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def render(self, max_rows: int = 20) -> str:
        """ASCII rendering of the table (mirrors Table 5 of the paper)."""
        names = self.schema.names
        header = ["s_i"]
        for name in names:
            header.append(f"{name}<low")
            header.append(f"{name}>high")
        lines = ["\t".join(header)]
        candidate_lows, candidate_highs = self.candidate_lows, self.candidate_highs
        for row in range(min(self.k, max_rows)):
            cells = [self.candidates[row].id]
            for attribute in range(self.m):
                if self.defined_low[row, attribute]:
                    cells.append(
                        f"{names[attribute]}<{candidate_lows[row, attribute]:g}"
                    )
                else:
                    cells.append("undefined")
                if self.defined_high[row, attribute]:
                    cells.append(
                        f"{names[attribute]}>{candidate_highs[row, attribute]:g}"
                    )
                else:
                    cells.append("undefined")
            lines.append("\t".join(cells))
        if self.k > max_rows:
            lines.append(f"... ({self.k - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ConflictTable(k={self.k}, m={self.m})"
