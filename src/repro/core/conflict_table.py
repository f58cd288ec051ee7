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
``-x - 1.0 == -(x + 1.0)``, ``min(-a, -b) == -max(a, b)`` and
``nextafter`` mirrors exactly, so each cell is bit-identical to the
two-sided formulation (pinned against the scalar oracles by
``tests/test_subsumption_arena.py``).

``Q`` is not built here: it *is* the candidate snapshot's
:attr:`~repro.core.arena.CandidateSet.signed` matrix — shared zero-copy
when the table spans the whole snapshot, one column gather when it spans
the ``rows`` the checker's candidate screen kept.  That matrix and the
subscription's own ends (:func:`~repro.core.arena.signed_box`) arrive
*snapped inwards* on discrete attributes (lower bounds rounded up, upper
bounds down), because only the ticks inside a range exist there: a bound
of ``4.7`` on an integer axis admits exactly the points ``5, 6, …``, and
treating it as the tick ``4.7`` would call entries defined — and
conflicts present — that no point of the domain can witness.  Everything
below, the scalar oracles and :meth:`ConflictTable.entry_region`
included, therefore reads integer-valued bounds on discrete axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, List, Optional, Sequence, Tuple

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

    def __str__(self) -> str:  # pragma: no cover - trivial
        tag = "<low" if self.side is EntrySide.LOW else ">high"
        return f"T[{self.row}][x{self.attribute + 1}{tag}]"


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

        self._vectors = schema.vectors
        self._discrete = self._vectors.discrete

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
        no point of ``s`` lies strictly between ``B`` and ``q``:

        * discrete axis (every bound a tick, see the module docstring): the
          last tick of the entry's slice is ``snapped = min(q-1, p)`` and
          the conflict is ``B + 1 > snapped``, i.e. ``B > snapped - 1``;
        * continuous axis: the slice of the closed box ``s`` ends at
          ``snapped = min(q, p)`` and the conflict is ``B >= snapped``,
          which for floats is exactly ``B > nextafter(snapped, -inf)``.

        Either way the per-pass test is one comparison ``B <= threshold``
        against a precomputed matrix (the ``-inf`` "no other candidate"
        sentinel passes every comparison on its own).  ``s``'s lower end
        does not enter: a defined entry's slice reaches down to it, so the
        slice is never empty — provided ``s`` itself holds a point (a tick,
        on a discrete axis), which sampling from it requires anyway.  In
        particular the slice of a candidate lying wholly beyond ``p`` is
        all of ``s`` and conflicts with nothing, which is what lets the
        checker screen such candidates out before the table is built.
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
        own_high = self._own_high[:, np.newaxis]
        undefined = ~self._defined
        discrete = self._discrete

        # At a few hundred candidates these passes are bound by memory
        # traffic, so temporaries are reused in place (``out=``/``putmask``)
        # and only the variant a schema actually needs is materialised.
        def discrete_axes():
            snapped = signed - 1.0
            np.minimum(snapped, own_high, out=snapped)
            return snapped, snapped - 1.0

        def continuous_axes():
            snapped = np.minimum(signed, own_high)
            return snapped, np.nextafter(snapped, -np.inf)

        if discrete.all():
            snapped, threshold = discrete_axes()
        elif not discrete.any():
            snapped, threshold = continuous_axes()
        else:
            both = np.concatenate((discrete, discrete))[:, np.newaxis]
            (snapped_d, threshold_d), (snapped_c, threshold_c) = (
                discrete_axes(),
                continuous_axes(),
            )
            snapped = np.where(both, snapped_d, snapped_c)
            threshold = np.where(both, threshold_d, threshold_c)
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

    def t(self, row: int) -> int:
        """Number of defined entries in ``row`` (the paper's ``t_i``)."""
        return int(self.row_defined_counts[row])

    def signed_bounds(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """The signed ``(2m, r)`` bound matrix of ``rows`` (default: all).

        One column gather of ``Q`` — what RSPC tests its guesses against
        (:func:`repro.core.rspc.run_rspc`'s ``bounds``).
        """
        if rows is None:
            return self._signed
        return self._signed[:, np.asarray(rows, dtype=int)]

    def entry_bound(self, row: int, attribute: int, side: EntrySide) -> float:
        """The numeric bound appearing in the negated predicate.

        ``LOW`` entries read ``x < bound`` and ``HIGH`` entries
        ``x > bound``; on a discrete attribute the bound is the
        candidate's first (last) tick.
        """
        if side is EntrySide.LOW:
            return float(self._signed[attribute, row])
        return float(-self._signed[self.m + attribute, row])

    def _own_interval(self, attribute: int) -> Tuple[float, float]:
        """``s``'s (snapped) range on ``attribute`` as ``(low, high)``."""
        return float(self._own_low[attribute]), float(self._own_high[attribute])

    def entry_region(self, row: int, attribute: int, side: EntrySide) -> Interval:
        """Portion of ``s``'s range on ``attribute`` satisfying the entry.

        For a LOW entry this is the slice of ``s`` strictly below the
        candidate's lower bound; for a HIGH entry the slice strictly above
        the candidate's upper bound.  On discrete domains strictness removes
        one tick; on continuous domains the closed approximation is
        returned (the boundary has measure zero).
        """
        if not self.is_defined(row, attribute, side):
            return Interval.empty()
        s_interval = Interval(*self._own_interval(attribute))
        bound = self.entry_bound(row, attribute, side)
        tick = 1.0 if self._discrete[attribute] else 0.0
        if side is EntrySide.LOW:
            return s_interval.intersection(Interval(-math.inf, bound - tick))
        return s_interval.intersection(Interval(bound + tick, math.inf))

    def defined_entries(self, row: int) -> List[EntryRef]:
        """All defined entries in ``row``."""
        entries: List[EntryRef] = []
        for attribute in range(self.m):
            if self.defined_low[row, attribute]:
                entries.append(EntryRef(row, attribute, EntrySide.LOW))
            if self.defined_high[row, attribute]:
                entries.append(EntryRef(row, attribute, EntrySide.HIGH))
        return entries

    def iter_defined_entries(self) -> Iterator[EntryRef]:
        """Iterate over every defined entry of the table."""
        for row in range(self.k):
            yield from self.defined_entries(row)

    # ------------------------------------------------------------------
    # Corollary 1 / Corollary 2 helpers
    # ------------------------------------------------------------------
    def row_all_undefined(self, row: int) -> bool:
        """Corollary 1 premise: every entry of the row is undefined.

        When true, ``s`` is covered by the row's candidate alone.
        """
        return self.t(row) == 0

    def row_all_defined(self, row: int) -> bool:
        """Corollary 2 premise: every entry of the row is defined.

        When true, ``s`` strictly covers the candidate on every attribute.
        """
        return self.t(row) == 2 * self.m

    def covering_rows(self) -> List[int]:
        """Rows whose candidate individually covers ``s`` (Corollary 1)."""
        return [row for row in range(self.k) if self.row_all_undefined(row)]

    def covered_candidate_rows(self) -> List[int]:
        """Rows whose candidate is strictly inside ``s`` (Corollary 2)."""
        return [row for row in range(self.k) if self.row_all_defined(row)]

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
        low_entry = first if first.side is EntrySide.LOW else second
        high_entry = second if first.side is EntrySide.LOW else first
        return self._low_high_conflict(
            first.attribute,
            self.entry_bound(low_entry.row, low_entry.attribute, EntrySide.LOW),
            self.entry_bound(high_entry.row, high_entry.attribute, EntrySide.HIGH),
        )

    def _low_high_conflict(
        self, attribute: int, low_bound: float, high_bound: float
    ) -> bool:
        """Unsatisfiability of ``s ∧ (x < low_bound) ∧ (x > high_bound)``."""
        s_low, s_high = self._own_interval(attribute)
        if self._discrete[attribute]:
            lowest = max(high_bound + 1.0, s_low)
            highest = min(low_bound - 1.0, s_high)
            return highest < lowest
        lowest = max(high_bound, s_low)
        highest = min(low_bound, s_high)
        return not self._open_slice_met(high_bound, lowest, highest, low_bound)

    def conflict_free_counts(self, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-row count of conflict-free entries (the paper's ``fc_i``).

        A defined entry is *conflict free* when it conflicts with no defined
        entry of any other row (Proposition 3).  ``rows`` restricts the
        computation to a subset of rows (used by MCS after removals); the
        returned array is indexed positionally by that subset, in the
        order given.

        A LOW entry (negation ``x < A``) conflicts with a HIGH entry
        (negation ``x > B``) of another row iff ``s`` has no point strictly
        between ``B`` and ``A``.  The condition is monotone in ``B`` (larger
        ``B`` => more likely conflict), so per attribute only the largest
        *other-row* ``B`` matters — and symmetrically only the smallest
        other-row ``A`` for HIGH entries, which on the signed layout is
        the same statement about the mirrored axis
        (:func:`conflict_free_entries`).
        """
        opposing, threshold = self._ensure_pass_cache()[:2]
        if rows is not None:
            active = np.asarray(rows, dtype=int)
            opposing = opposing[:, active]
            threshold = threshold[:, active]
        if opposing.shape[1] == 0:
            return np.zeros(0, dtype=int)
        return conflict_free_entries(opposing, threshold).sum(axis=0)

    def _conflict_free_counts_scalar(
        self, rows: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Per-attribute reference implementation of ``fc_i`` (Definition 5).

        Kept as the differential oracle for the matrix implementation
        above; both must agree exactly on every instance.
        """
        active = (
            np.arange(self.k, dtype=int)
            if rows is None
            else np.asarray(rows, dtype=int)
        )
        n = len(active)
        counts = np.zeros(n, dtype=int)
        if n == 0:
            return counts

        candidate_lows = self.candidate_lows
        candidate_highs = self.candidate_highs

        for attribute in range(self.m):
            low_mask = self.defined_low[active, attribute]
            high_mask = self.defined_high[active, attribute]
            low_positions = np.nonzero(low_mask)[0]
            high_positions = np.nonzero(high_mask)[0]

            low_bounds = candidate_lows[active[low_positions], attribute]
            high_bounds = candidate_highs[active[high_positions], attribute]

            # A LOW entry (negation ``x < A``) conflicts with a HIGH entry
            # (negation ``x > B``) of another row iff ``s`` has no point
            # strictly between ``B`` and ``A``.  The condition is monotone in
            # ``B`` (larger ``B`` => more likely conflict) so only the largest
            # *other-row* ``B`` matters — and symmetrically only the smallest
            # other-row ``A`` matters for HIGH entries.
            discrete = bool(self._discrete[attribute])
            s_low, s_high = self._own_interval(attribute)

            if low_positions.size:
                other_max_b = self._exclusive_extreme(
                    high_positions, high_bounds, low_positions, use_max=True
                )
                a = low_bounds
                has_other = np.isfinite(other_max_b)
                if discrete:
                    highest = np.minimum(a - 1.0, s_high)
                    lowest = np.maximum(other_max_b + 1.0, s_low)
                    conflict = has_other & (highest < lowest)
                else:
                    highest = np.minimum(a, s_high)
                    lowest = np.maximum(other_max_b, s_low)
                    conflict = has_other & ~self._open_slice_met(
                        other_max_b, lowest, highest, a
                    )
                np.add.at(counts, low_positions, (~conflict).astype(int))

            if high_positions.size:
                other_min_a = self._exclusive_extreme(
                    low_positions, low_bounds, high_positions, use_max=False
                )
                b = high_bounds
                has_other = np.isfinite(other_min_a)
                if discrete:
                    highest = np.minimum(other_min_a - 1.0, s_high)
                    lowest = np.maximum(b + 1.0, s_low)
                    conflict = has_other & (highest < lowest)
                else:
                    highest = np.minimum(other_min_a, s_high)
                    lowest = np.maximum(b, s_low)
                    conflict = has_other & ~self._open_slice_met(
                        b, lowest, highest, other_min_a
                    )
                np.add.at(counts, high_positions, (~conflict).astype(int))

        return counts

    @staticmethod
    def _open_slice_met(below, lowest, highest, above):
        """Whether the closed range ``[lowest, highest]`` of ``s`` holds a
        point strictly between ``below`` and ``above`` (continuous axes).

        ``lowest = max(below, s_low)`` and ``highest = min(above, s_high)``.
        ``s`` is a closed box: where it is a single point on the attribute
        that point counts, unless a strict bound touches it.
        """
        return (highest > lowest) | (
            (highest == lowest) & (below < lowest) & (highest < above)
        )

    @staticmethod
    def _exclusive_extreme(
        source_positions: np.ndarray,
        source_bounds: np.ndarray,
        target_positions: np.ndarray,
        use_max: bool,
    ) -> np.ndarray:
        """Per-target extreme of the source bounds excluding the same row.

        For each target position, return the max (or min) of the source
        bounds over source entries belonging to *other* rows; ``±inf``
        signals "no other-row source entry exists".
        """
        fill = -math.inf if use_max else math.inf
        result = np.full(len(target_positions), fill, dtype=float)
        if source_positions.size == 0:
            return result
        order = np.argsort(source_bounds)
        if use_max:
            best_pos = source_positions[order[-1]]
            best = source_bounds[order[-1]]
            second = source_bounds[order[-2]] if source_positions.size > 1 else fill
        else:
            best_pos = source_positions[order[0]]
            best = source_bounds[order[0]]
            second = source_bounds[order[1]] if source_positions.size > 1 else fill
        result[:] = best
        same = target_positions == best_pos
        result[same] = second
        return result

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

        For schemas built from the four built-in domain types the whole
        computation is a handful of array expressions over the table's
        bound matrices (bit-identical to the per-entry domain calls);
        schemas with custom domains take the per-object fallback.
        """
        if self._vectors is not None and self._vectors.vectorisable:
            return self._minimum_gap_measures_vectorised(rows)
        return self._minimum_gap_measures_scalar(rows)

    def _minimum_gap_measures_vectorised(
        self, rows: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Array implementation of Algorithm 2's per-attribute minima.

        Replicates, per cell, exactly what ``entry_region`` +
        ``domain.measure`` + ``domain.gap_measure(1e-12)`` compute for
        the built-in domains: on discrete axes the snapped point count
        ``floor(high) - ceil(low) + 1`` of the uncovered slice, on
        continuous axes its length floored by the domain resolution.  Bounds
        are already snapped, so the point count is ``high - low + 1``.
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
        bound on a signed axis is ``[own_low, snapped]`` (one tick removed
        on discrete axes).  Also returns the ``(m,)`` initial value, the
        full extent of ``s`` on each attribute.
        """
        cache = self._gap_cache
        if cache is not None:
            return cache
        snapped = self._ensure_pass_cache()[2]
        m = self.m
        own_low = self._own_low
        discrete = self._discrete
        resolution = self._vectors.resolution

        with np.errstate(invalid="ignore"):

            def discrete_axes():
                # point count, clamped at 0 and floored by ``gap_measure``
                # (a single ``maximum`` does both)
                cells = snapped - own_low[:, np.newaxis]
                cells += 1.0
                np.maximum(cells, 1e-12, out=cells)
                return cells, -own_low[m:] - own_low[:m] + 1.0

            def continuous_axes():
                cells = snapped - own_low[:, np.newaxis]
                floor = np.concatenate((resolution, resolution))[:, np.newaxis]
                np.maximum(cells, floor, out=cells)
                return cells, np.maximum(-own_low[m:] - own_low[:m], resolution)

            if discrete.all():
                cells, initial = discrete_axes()
            elif not discrete.any():
                cells, initial = continuous_axes()
            else:
                (cells_d, initial_d), (cells_c, initial_c) = (
                    discrete_axes(),
                    continuous_axes(),
                )
                both = np.concatenate((discrete, discrete))[:, np.newaxis]
                cells = np.where(both, cells_d, cells_c)
                initial = np.where(discrete, initial_d, initial_c)
            # Undefined entries contribute nothing to the minima.
            np.putmask(cells, ~self._defined, np.inf)
        cache = (cells, initial)
        self._gap_cache = cache
        return cache

    def _minimum_gap_measures_scalar(
        self, rows: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Per-object reference implementation (and custom-domain fallback)."""
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
                    minimum = min(minimum, max(slice_measure, domain.gap_measure(1e-12)))
                if self.defined_high[row, attribute]:
                    slice_measure = domain.measure(
                        self.entry_region(row, attribute, EntrySide.HIGH)
                    )
                    minimum = min(minimum, max(slice_measure, domain.gap_measure(1e-12)))
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
