"""Minimized Cover Set (Algorithm 3).

MCS shrinks the candidate set ``S`` to a non-reducible subset ``S'`` that
is sufficient to answer the group-cover question for ``s``.  A candidate
``s_i`` is removed when (Proposition 4):

* its conflict-table row has at least one *conflict-free* entry
  (``fc_i >= 1``) — the candidate can never be essential to a cover because
  any witness avoiding the other candidates can be moved into the
  conflict-free slice; or
* its row has at least as many defined entries as there are remaining
  candidates (``t_i >= k``) — the candidate leaves so much of ``s``
  uncovered that a witness can always dodge it.

Removing candidates can create new conflict-free entries, so the two rules
are applied until a fixed point is reached.  The reduction preserves the
answer to the subsumption question and typically shrinks both ``k`` and the
required number of RSPC trials ``d`` dramatically (Figures 6–10).

There is one fixed point for every table size.  Each pass is
:func:`~repro.core.conflict_table.conflict_free_entries` over the table's
signed ``(2m, k)`` matrices — an ``argmax``/``max`` along the contiguous
candidate axis, one broadcast comparison and a ``2m``-cell fix-up, about
twenty NumPy dispatches whose cost is flat in ``k`` up to a few hundred
rows — followed by a compaction of the survivors, so the late passes
touch only what is left.  The bulk of what pass 1 used to remove — the
candidates sharing no point with ``s``, each of which owns a
conflict-free entry — never reaches the table: the checker screens them
out first (see :mod:`repro.core.subsumption`), and since both rules only
ever become *more* applicable as candidates leave, the fixed point from
the screened set is the one from the full set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.conflict_table import ConflictTable, conflict_free_entries
from repro.model.subscriptions import Subscription

__all__ = ["MCSResult", "minimized_cover_set"]


@dataclass
class MCSResult:
    """Outcome of the MCS reduction.

    Attributes
    ----------
    kept_rows:
        Indices (into the original candidate list) of the non-reducible set
        ``S'``, in their original order.
    removed_rows:
        Indices of the candidates eliminated by the reduction.
    iterations:
        Number of fixed-point passes executed.
    kept:
        The surviving subscriptions, in original order.
    """

    kept_rows: Tuple[int, ...]
    removed_rows: Tuple[int, ...]
    iterations: int
    kept: Tuple[Subscription, ...]

    @property
    def reduced_size(self) -> int:
        """Size of the non-reducible set ``S'``."""
        return len(self.kept_rows)

    @property
    def removed_count(self) -> int:
        """Number of candidates eliminated."""
        return len(self.removed_rows)

    def reduction_ratio(self, original_size: int) -> float:
        """Fraction of the original set removed by the reduction."""
        if original_size == 0:
            return 0.0
        return self.removed_count / original_size


def minimized_cover_set(table: ConflictTable) -> MCSResult:
    """Run Algorithm 3 on a pre-built conflict table.

    Returns the reduced candidate set together with the bookkeeping used by
    the evaluation (how many candidates were removed and in how many
    passes).  The input table is not modified.
    """
    opposing, threshold = table._ensure_pass_cache()[:2]
    defined_counts = table.row_defined_counts
    active = np.arange(table.k)
    removed: List[int] = []
    passes = 0

    while True:
        passes += 1
        size = active.size
        if size == 0:
            break
        drop = conflict_free_entries(opposing, threshold).any(axis=0)
        drop |= defined_counts >= size
        keep = (~drop).nonzero()[0]
        if keep.size == size:
            break
        removed.extend(active[drop].tolist())
        active = active[keep]
        defined_counts = defined_counts[keep]
        opposing = opposing.take(keep, axis=1)
        threshold = threshold.take(keep, axis=1)

    kept_rows = tuple(active.tolist())
    return MCSResult(
        kept_rows=kept_rows,
        removed_rows=tuple(removed),
        iterations=passes,
        kept=tuple(table.candidates[row] for row in kept_rows),
    )
