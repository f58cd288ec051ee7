"""Selectivity-ordered matching index.

Carzaniga & Wolf's forwarding tables (referenced in Section 7) organise
constraints per attribute and evaluate the most *selective* attributes
first so that the candidate set shrinks as quickly as possible.  This
index captures that idea: attributes are ordered by their estimated
selectivity (average fraction of the attribute's domain that indexed
subscriptions accept) and candidate subscriptions are eliminated attribute
by attribute, short-circuiting as soon as the candidate set becomes empty.

Storage and maintenance are shared with :class:`CountingIndex` (one
signed attribute-major bound matrix, appends plus NaN tombstones, no
rebuilds), so each attribute's two bounds are contiguous rows of that
matrix; the selectivity statistics are kept
incrementally as per-attribute accepted-width sums, so the evaluation
order is an ``argsort`` away at any moment instead of a full re-scan.

The result is always identical to the counting index; the difference is
the amount of per-publication work, which the micro-benchmarks compare.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.matching.counting_index import CountingIndex
from repro.model.errors import ValidationError
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription

__all__ = ["SelectivityIndex"]


class SelectivityIndex(CountingIndex):
    """Attribute-ordered elimination index."""

    def __init__(self, schema: Schema):
        domain_lows, domain_highs = schema.full_bounds()
        self._extents = np.maximum(domain_highs - domain_lows, 1e-12)
        #: per-attribute sum of normalised accepted widths over live rows
        self._width_sums = np.zeros(schema.m, dtype=float)
        self._order: Optional[np.ndarray] = None
        super().__init__(schema)

    # ------------------------------------------------------------------
    # Incremental selectivity statistics
    # ------------------------------------------------------------------
    def _widths(self, rows) -> np.ndarray:
        """Normalised accepted widths of the ``rows`` columns, ``(m, ...)``."""
        m = self.schema.m
        spans = -self._signed[m:, rows] - self._signed[:m, rows]
        return (spans.T / self._extents).T

    def _on_add(self, row: int) -> None:
        self._width_sums += self._widths(row)
        self._order = None

    def _on_remove(self, row: int) -> None:
        self._width_sums -= self._widths(row)
        self._order = None

    def _on_compact(self) -> None:
        # Recompute exactly, shedding any floating-point drift accumulated
        # by the incremental +=/-= updates.
        self._width_sums = self._widths(slice(0, self._size)).sum(axis=1)
        self._order = None

    def _attribute_indices(self) -> np.ndarray:
        if self._order is None:
            # Most selective attribute = smallest average accepted fraction;
            # the live count divides every sum equally, so sorting the sums
            # sorts the means.
            self._order = np.argsort(self._width_sums, kind="stable")
        return self._order

    @property
    def attribute_order(self) -> List[str]:
        """Evaluation order chosen by the selectivity heuristic."""
        return [self.schema.names[int(j)] for j in self._attribute_indices()]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, publication: Publication) -> List[Subscription]:
        """Return every indexed subscription matching ``publication``."""
        if publication.schema != self.schema:
            raise ValidationError("publication schema does not match the index")
        if not self._rows:
            return []
        m = self.schema.m
        signed = self._signed[:, : self._size]
        values = publication.values
        # Every column is a candidate until an attribute rules it out; a
        # tombstone (NaN) is ruled out by the first one.
        candidates = np.arange(self._size)
        for attribute in self._attribute_indices():
            value = values[attribute]
            keep = (signed[attribute, candidates] <= value) & (
                signed[m + attribute, candidates] <= -value
            )
            candidates = candidates[keep]
            if candidates.size == 0:
                return []
        return [self._subscriptions[i] for i in candidates.tolist()]
