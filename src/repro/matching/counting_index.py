"""Counting-algorithm matching index.

The counting algorithm (Yan & Garcia-Molina, referenced as the ancestor of
most deterministic matchers in Section 7) evaluates every attribute
independently: for each attribute it determines which subscriptions'
constraints are satisfied by the publication's value and increments a
per-subscription counter; a subscription matches when its counter reaches
the number of attributes.

This implementation keeps one bound matrix in the conflict table's
layout — *signed, attribute-major*, shape ``(2m, capacity)``, one column
per subscription with its lower bounds on top of its **negated** upper
bounds — and matches with the checker's own box test: a publication is
the box with ``low == high``, so "every attribute's constraint is
satisfied" is one ``<=`` against ``[v, -v]`` reduced over the ``2m``
axes, each attribute's comparison running along a contiguous row
(:func:`repro.core.arena.boxes_containing`, which tests a whole burst of
publications per kernel call under one workspace budget).  The bounds
are kept *raw* (the contract is :meth:`Subscription.contains_values`;
snapping to ticks is the checker's business).  Maintenance is
*incremental* and lives in :class:`SignedColumns`, which the linear
backend's batched path holds too: ``add`` fills the next column of a
geometrically grown matrix and ``remove`` tombstones its column with
NaN, which no comparison passes — as is every column never used;
tombstones are compacted away (preserving insertion order) once they
rival the live columns, so neither operation ever rebuilds the storage
and a match is a single vectorised pass over at most ``2 × live``
columns.

The index serves as a deterministic baseline for the matching
micro-benchmarks, as an independent test oracle for the matching engine,
and as the storage behind the engine's ``counting`` matcher backend
(:mod:`repro.matching.backends`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.arena import boxes_containing, boxes_meeting
from repro.model.errors import ValidationError
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription

__all__ = ["CountingIndex", "SignedColumns"]

#: smallest array capacity allocated (and smallest tombstone debt compacted)
_MIN_CAPACITY = 8


class SignedColumns:
    """Subscriptions of one arity as incrementally kept signed columns.

    The storage under :class:`CountingIndex` and under the linear
    backend's batched path: schema-agnostic (only the attribute count is
    fixed), insertion-ordered, never rebuilt.
    """

    def __init__(self, m: int):
        self.m = m
        #: signed bounds, one column per row in use; NaN marks a tombstone
        self._signed = np.empty((2 * m, 0), dtype=float)
        #: rows in use, tombstones included
        self._size = 0
        self._dead = 0
        self._subscriptions: List[Optional[Subscription]] = []
        self._rows: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> None:
        """Store a subscription (fills one column; never rebuilds)."""
        if subscription.id in self._rows:
            raise ValidationError(
                f"subscription {subscription.id!r} is already indexed"
            )
        row = self._size
        if row == self._signed.shape[1]:
            self._resize(max(_MIN_CAPACITY, 2 * row), slice(0, row))
        m = self.m
        self._signed[:m, row] = subscription.lows
        np.negative(subscription.highs, out=self._signed[m:, row])
        self._subscriptions.append(subscription)
        self._rows[subscription.id] = row
        self._size += 1
        self._on_add(row)

    def add_all(self, subscriptions: Sequence[Subscription]) -> None:
        """Store many subscriptions in order."""
        for subscription in subscriptions:
            self.add(subscription)

    def remove(self, subscription_id: str) -> bool:
        """Remove a subscription by identifier (tombstones its column)."""
        row = self._rows.pop(subscription_id, None)
        if row is None:
            return False
        self._on_remove(row)
        self._signed[:, row] = np.nan
        self._subscriptions[row] = None
        self._dead += 1
        if self._dead >= _MIN_CAPACITY and 2 * self._dead >= self._size:
            self._compact()
        return True

    def _resize(self, capacity: int, keep) -> None:
        """Move the ``keep`` columns to the front of a fresh NaN matrix."""
        signed = np.full((2 * self.m, capacity), np.nan)
        kept = self._signed[:, keep]
        signed[:, : kept.shape[1]] = kept
        self._signed = signed

    def _compact(self) -> None:
        """Drop tombstoned columns, preserving the insertion order of the rest."""
        keep = [i for i, s in enumerate(self._subscriptions) if s is not None]
        self._resize(max(_MIN_CAPACITY, len(keep)), keep)
        subscriptions = [self._subscriptions[i] for i in keep]
        self._subscriptions = subscriptions
        self._rows = {s.id: i for i, s in enumerate(subscriptions)}
        self._size = len(keep)
        self._dead = 0
        self._on_compact()

    # Hooks for subclasses that keep per-attribute statistics.
    def _on_add(self, row: int) -> None:
        pass

    def _on_remove(self, row: int) -> None:
        pass

    def _on_compact(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def containing(self, points: np.ndarray) -> List[List[Subscription]]:
        """Per row of the ``(B, m)`` block ``points``, the stored
        subscriptions containing it, in insertion order."""
        subscriptions = self._subscriptions
        return [
            [subscriptions[column] for column in columns]
            for columns in boxes_containing(
                self._signed[:, : self._size], points
            )
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._rows


class CountingIndex(SignedColumns):
    """Vectorised counting-algorithm index over a fixed schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        super().__init__(schema.m)

    def add(self, subscription: Subscription) -> None:
        """Index a subscription (fills one column; never rebuilds)."""
        if subscription.schema != self.schema:
            raise ValidationError("subscription schema does not match the index")
        super().add(subscription)

    def match(self, publication: Publication) -> List[Subscription]:
        """Return every indexed subscription matching ``publication``."""
        if publication.schema != self.schema:
            raise ValidationError("publication schema does not match the index")
        if not self._rows:
            return []
        # one point needs no split: the kernel on a 1-D limit, at a third
        # of the batched routine's fixed cost (the engine matches its
        # publications one at a time)
        values = publication.values
        hits = boxes_meeting(
            self._signed[:, : self._size], np.concatenate((values, -values))
        )
        return [self._subscriptions[i] for i in hits.nonzero()[0].tolist()]

    def match_batch(
        self, publications: Sequence[Publication]
    ) -> List[List[Subscription]]:
        """Match a burst of publications in one (chunked) vectorised pass.

        Equivalent to ``[self.match(p) for p in publications]`` but the
        bound matrix is compared against the whole burst at once.
        """
        publications = list(publications)
        for publication in publications:
            if publication.schema != self.schema:
                raise ValidationError(
                    "publication schema does not match the index"
                )
        if not self._rows or not publications:
            return [[] for _ in publications]
        return self.containing(np.array([p.values for p in publications]))

    def match_count(self, publication: Publication) -> int:
        """Number of matching subscriptions (cheaper than materialising)."""
        return len(self.match(publication))
