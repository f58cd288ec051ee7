"""Subscription merging — the complementary reduction technique.

Besides covering, the related work the paper positions itself against
(Crespo et al., Li et al.) reduces subscription sets by *merging* similar
subscriptions into a single, broader one.  Merging trades precision for
state: the merged subscription (the bounding box of its inputs) may accept
publications that none of the inputs accepts, producing *false positives*
(unrequested publications), whereas covering-based reduction — the paper's
approach — never does.

This module implements the pair merge the merging strategies apply
(:mod:`repro.core.policies`), so the trade-off can be quantified next to
the probabilistic group-subsumption approach:

* :func:`merge_pair` — bounding-box merge of two subscriptions with the
  exact measure of the over-approximated volume;
* :func:`cheapest_merge` — the candidate whose merge with a subscription
  adds the least false volume, under a relative budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.exact import uncovered_region
from repro.model.subscriptions import Subscription

__all__ = [
    "MergeResult",
    "merge_pair",
    "cheapest_merge",
    "false_positive_volume",
]


@dataclass(frozen=True)
class MergeResult:
    """Outcome of merging two subscriptions.

    Attributes
    ----------
    merged:
        The bounding box of the two inputs.
    false_volume:
        Measure of the region accepted by ``merged`` but by neither input
        (the source of false positives).
    relative_overhead:
        ``false_volume`` divided by the measure of the merged box (0 for a
        perfect merge, approaching 1 for a useless one).
    """

    merged: Subscription
    false_volume: float
    relative_overhead: float


def false_positive_volume(
    merged: Subscription, parts: Sequence[Subscription]
) -> float:
    """Measure of ``merged`` minus the union of ``parts`` (exact)."""
    return float(sum(piece.size() for piece in uncovered_region(merged, parts)))


def merge_pair(first: Subscription, second: Subscription) -> MergeResult:
    """Merge two subscriptions into their bounding box.

    The false volume is computed exactly by box subtraction, so the caller
    can decide whether the state saving is worth the imprecision.
    """
    merged = first.union_hull(second)
    false_volume = false_positive_volume(merged, [first, second])
    size = merged.size()
    overhead = false_volume / size if size > 0 else 0.0
    return MergeResult(
        merged=merged, false_volume=false_volume, relative_overhead=overhead
    )


def cheapest_merge(
    target: Subscription,
    candidates: Sequence[Subscription],
    max_relative_overhead: float,
) -> Optional[Tuple[int, MergeResult]]:
    """Cheapest in-budget bounding-box merge of ``target`` with one candidate.

    The single greedy rule every merging consumer shares: the candidate
    whose merge with ``target`` introduces the smallest relative false
    volume wins, ties broken toward the smaller merged box.  Returns the
    winning candidate's index and the merge outcome, or ``None`` when no
    candidate stays within ``max_relative_overhead``.
    """
    best: Optional[Tuple[Tuple[float, float], int, MergeResult]] = None
    for index, candidate in enumerate(candidates):
        outcome = merge_pair(candidate, target)
        if outcome.relative_overhead > max_relative_overhead:
            continue
        key = (outcome.relative_overhead, outcome.merged.size())
        if best is None or key < best[0]:
            best = (key, index, outcome)
    if best is None:
        return None
    return best[1], best[2]
