"""Witnesses to non-coverage.

Definitions 3 and 4 of the paper introduce two kinds of evidence that a
subscription ``s`` is *not* covered by the set ``S``:

* a **polyhedron witness** — a selection of one defined conflict-table
  entry per row whose conjunction with ``s`` is satisfiable; geometrically
  a box contained in ``s`` but disjoint from every ``s_i``;
* a **point witness** — any point inside such a box, i.e. a point of ``s``
  outside every ``s_i``.

This module provides

* :func:`find_point_witness` — Algorithm 1's guess loop one point at a
  time, the scalar reference for RSPC (:mod:`repro.core.rspc` runs the
  batched kernel, which tests only the bounds a guess can fail),
* :func:`find_polyhedron_witness_greedy` — the greedy construction from the
  proof of Corollary 3,
* :func:`estimate_smallest_witness` / :func:`compute_point_witness_probability`
  — Algorithm 2, the ``I(sw)``/``rho_w`` estimator that feeds Eq. 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.conflict_table import ConflictTable, EntryRef, EntrySide
from repro.model.intervals import Interval
from repro.model.subscriptions import Subscription

__all__ = [
    "WitnessEstimate",
    "find_point_witness",
    "point_is_witness",
    "find_polyhedron_witness_greedy",
    "witness_box_from_entries",
    "estimate_smallest_witness",
    "compute_point_witness_probability",
]


# ----------------------------------------------------------------------
# Point witnesses
# ----------------------------------------------------------------------
def point_is_witness(
    point: np.ndarray,
    candidates: Sequence[Subscription],
) -> bool:
    """Whether ``point`` lies outside every candidate subscription.

    The caller guarantees the point lies inside ``s``; the function only
    performs the ``O(m·k)`` membership scan of Algorithm 1, line 4.
    """
    for candidate in candidates:
        if candidate.contains_point(point):
            return False
    return True


def find_point_witness(
    subscription: Subscription,
    candidates: Sequence[Subscription],
    rng: np.random.Generator,
    max_trials: int,
) -> Tuple[Optional[np.ndarray], int]:
    """Randomly guess points of ``s`` looking for a point witness.

    Returns ``(witness, trials_used)`` where ``witness`` is ``None`` when no
    witness was found within ``max_trials`` guesses.  This is the raw loop
    of Algorithm 1, one guess at a time against every bound of every
    candidate — the scalar reference; :func:`repro.core.rspc.run_rspc`
    runs the batched kernel and adds bookkeeping and the error model.
    """
    for trial in range(1, max_trials + 1):
        point = subscription.sample_point(rng)
        if point_is_witness(point, candidates):
            return point, trial
    return None, max_trials


# ----------------------------------------------------------------------
# Polyhedron witnesses
# ----------------------------------------------------------------------
def find_polyhedron_witness_greedy(
    table: ConflictTable,
) -> Optional[List[EntryRef]]:
    """Greedy construction of a polyhedron witness from the conflict table.

    Follows the proof of Corollary 3: repeatedly pick a defined entry from
    the row with the fewest remaining defined entries and discard, from
    every other row, the entries conflicting with the choice.  When every
    row can contribute an entry, the selected entries form a polyhedron
    witness; the construction is guaranteed to succeed when the sorted-row
    condition ``t_{i_j} >= j`` holds and may succeed opportunistically in
    other cases.  Returns ``None`` when some row runs out of entries (which
    does *not* prove coverage).
    """
    if table.k == 0:
        return []
    remaining: List[List[EntryRef]] = [
        table.defined_entries(row) for row in range(table.k)
    ]
    if any(not entries for entries in remaining):
        return None

    chosen: List[EntryRef] = []
    unresolved = set(range(table.k))
    while unresolved:
        # Pick the most constrained row first (fewest usable entries).
        row = min(unresolved, key=lambda r: len(remaining[r]))
        if not remaining[row]:
            return None
        entry = remaining[row][0]
        chosen.append(entry)
        unresolved.discard(row)
        for other in list(unresolved):
            remaining[other] = [
                candidate
                for candidate in remaining[other]
                if not table.entries_conflict(entry, candidate)
            ]
            if not remaining[other]:
                return None
    return chosen


def witness_box_from_entries(
    table: ConflictTable, entries: Sequence[EntryRef]
) -> Optional[Subscription]:
    """Materialise the witness box ``s ∧ entry_1 ∧ … ∧ entry_k``.

    Returns ``None`` when the conjunction is empty (the entries were not a
    valid witness).  The returned box is represented as a subscription so it
    can be measured and sampled like any other region.
    """
    subscription = table.subscription
    lows = subscription.lows.copy()
    highs = subscription.highs.copy()
    for entry in entries:
        region = table.entry_region(entry.row, entry.attribute, entry.side)
        if region.is_empty:
            return None
        current = Interval(lows[entry.attribute], highs[entry.attribute])
        clipped = current.intersection(region)
        if clipped.is_empty:
            return None
        lows[entry.attribute] = clipped.low
        highs[entry.attribute] = clipped.high
    return Subscription(
        subscription.schema,
        lows,
        highs,
        subscription_id=f"{subscription.id}#witness",
    )


# ----------------------------------------------------------------------
# Algorithm 2 — rho_w estimation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WitnessEstimate:
    """Output of the smallest-witness estimator (Algorithm 2).

    Attributes
    ----------
    subscription_size:
        ``I(s)`` — measure of the tested subscription.
    witness_size:
        ``I(sw)`` — estimated measure of the smallest polyhedron witness.
    rho_w:
        ``I(sw) / I(s)`` clamped to ``[0, 1]`` — the lower bound on the
        probability that a uniformly random point of ``s`` is a point
        witness when ``s`` is not covered.
    per_attribute_gaps:
        The per-attribute minimum uncovered slice measures whose product is
        ``witness_size``.
    """

    subscription_size: float
    witness_size: float
    rho_w: float
    per_attribute_gaps: Tuple[float, ...]


def estimate_smallest_witness(
    table: ConflictTable, rows: Optional[Sequence[int]] = None
) -> WitnessEstimate:
    """Estimate ``I(sw)`` and ``rho_w`` from a conflict table (Algorithm 2).

    The estimator multiplies, over all attributes, the smallest measure of
    the slice of ``s`` left uncovered by any single candidate on that
    attribute.  With no candidates the estimate degenerates to
    ``rho_w = 1`` (any point of ``s`` is a witness).
    """
    subscription_size = table.subscription.size()
    gaps = table.minimum_gap_measures(rows).tolist()
    witness_size = math.prod(gaps, start=1.0)
    if subscription_size <= 0:
        rho = 0.0
    else:
        rho = min(max(witness_size / subscription_size, 0.0), 1.0)
    return WitnessEstimate(
        subscription_size=float(subscription_size),
        witness_size=float(witness_size),
        rho_w=rho,
        per_attribute_gaps=tuple(gaps),
    )


def compute_point_witness_probability(
    subscription: Subscription,
    candidates: Sequence[Subscription],
) -> float:
    """Convenience wrapper returning only ``rho_w`` for ``s`` versus ``S``."""
    table = ConflictTable(subscription, candidates)
    return estimate_smallest_witness(table).rho_w
