"""Pair-wise coverage — the classical baseline.

Deterministic publish/subscribe systems (Siena, Rebeca, padres-style
brokers) reduce subscription traffic by checking a new subscription against
every existing subscription *individually*: ``s`` is dropped only when some
single ``s_i`` covers it.  This module is that test, stateless:
:meth:`PairwiseCoverageChecker.check`.  The ``pairwise`` and ``merging``
reduction strategies (:mod:`repro.core.policies`) decide with it, and a
:class:`~repro.core.store.SubscriptionStore` under ``pairwise`` keeps the
covering-reduced subscription set it implies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.arena import CandidateSet
from repro.model.subscriptions import Subscription

__all__ = ["PairwiseResult", "PairwiseCoverageChecker"]


@dataclass
class PairwiseResult:
    """Outcome of a pair-wise coverage check.

    Attributes
    ----------
    covered:
        Whether some single existing subscription covers the new one.
    covering:
        The first covering subscription found, if any.
    comparisons:
        Number of pair-wise comparisons performed (cost accounting).
    """

    covered: bool
    covering: Optional[Subscription]
    comparisons: int


class PairwiseCoverageChecker:
    """Stateless pair-wise covering (:meth:`check`)."""

    @staticmethod
    def check(
        subscription: Subscription, candidates: Sequence[Subscription]
    ) -> PairwiseResult:
        """Check whether any single candidate covers ``subscription``.

        Candidate-set snapshots are tested in one vectorised pass over
        their stacked bounds; the comparison accounting mirrors the
        scan's early exit (first coverer found stops the scan).
        """
        if isinstance(candidates, CandidateSet) and len(candidates):
            hits = np.nonzero(candidates.covering_rows_mask(subscription))[0]
            if hits.size:
                first = int(hits[0])
                return PairwiseResult(True, candidates[first], first + 1)
            return PairwiseResult(False, None, len(candidates))
        comparisons = 0
        for candidate in candidates:
            comparisons += 1
            if candidate.covers(subscription):
                return PairwiseResult(True, candidate, comparisons)
        return PairwiseResult(False, None, comparisons)
