"""Fast deterministic decisions (Section 4.3, Algorithm 4).

Before resorting to the probabilistic RSPC test, three cheap sufficient
conditions can settle the subsumption question deterministically:

1. **Pair-wise subsumption** (Corollary 1): a conflict-table row with no
   defined entry means that single candidate covers ``s`` → definite YES.
2. **Polyhedron witness** (Corollary 3): sort the rows by their number of
   defined entries ``t_i``; if the ``j``-th smallest satisfies
   ``t_{i_j} >= j`` for every ``j`` then a polyhedron witness exists →
   definite NO.
3. **Empty MCS output**: if the Minimized Cover Set removes every
   candidate, no subset of ``S`` can jointly cover ``s`` → definite NO.
   (This check lives in the orchestrator because it needs the MCS result.)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.core.conflict_table import ConflictTable

__all__ = [
    "FastDecisionKind",
    "FastDecision",
    "detect_pairwise_cover",
    "detect_polyhedron_witness",
]


class FastDecisionKind(str, Enum):
    """Which sufficient condition fired."""

    #: Corollary 1 — some candidate covers ``s`` on its own
    PAIRWISE_COVER = "pairwise_cover"
    #: Corollary 3 — the sorted-row condition proves a polyhedron witness
    POLYHEDRON_WITNESS = "polyhedron_witness"


@dataclass(frozen=True)
class FastDecision:
    """A deterministic verdict produced without running RSPC.

    Attributes
    ----------
    kind:
        The sufficient condition that fired.
    covered:
        The verdict: ``True`` for pair-wise cover, ``False`` for a
        polyhedron witness.
    covering_row:
        For pair-wise cover, the row index of the covering candidate.
    """

    kind: FastDecisionKind
    covered: bool
    covering_row: Optional[int] = None


def detect_pairwise_cover(table: ConflictTable) -> Optional[FastDecision]:
    """Corollary 1: find a row whose entries are all undefined.

    Such a row's candidate covers ``s`` by itself, so the group question is
    answered with a definite YES in ``O(k)`` once the table is built.
    """
    if table.k == 0:
        return None
    empty_rows = np.nonzero(table.row_defined_counts == 0)[0]
    if empty_rows.size:
        return FastDecision(
            kind=FastDecisionKind.PAIRWISE_COVER,
            covered=True,
            covering_row=int(empty_rows[0]),
        )
    return None


def detect_polyhedron_witness(table: ConflictTable) -> Optional[FastDecision]:
    """Corollary 3: the sorted-row sufficient condition for non-coverage.

    Sort the per-row defined-entry counts ``t_i`` in ascending order; when
    the ``j``-th smallest count is at least ``j`` (1-based) for every row, a
    polyhedron witness can always be constructed greedily, so ``s`` is
    definitely not covered.
    """
    if table.k == 0:
        return None
    counts = np.sort(table.row_defined_counts)
    positions = np.arange(1, table.k + 1)
    if np.all(counts >= positions):
        return FastDecision(
            kind=FastDecisionKind.POLYHEDRON_WITNESS,
            covered=False,
        )
    return None
