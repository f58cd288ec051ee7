"""The matcher: one set of subscriptions as signed columns.

Every publication lookup of the program goes through :class:`Matcher`:
the matching engine's active and covered sets, every broker's routing
table, the network's delivery oracle and the shard workers' index mode.

The subscriptions are kept in the checker's layout — *signed,
attribute-major*, shape ``(2m, capacity)``, one column per subscription
with its lower bounds on top of its **negated** upper bounds — and a
publication is the box with ``low == high``, so "the subscription holds
the point" is one ``<=`` against ``[v, -v]`` reduced over the ``2m``
axes (:func:`repro.core.arena.boxes_meeting`).  This is the counting
algorithm of Yan & Garcia-Molina (Section 7) as one vectorised pass.
The bounds are kept *raw*: the contract is
:meth:`Subscription.contains_values`; snapping to ticks is the
checker's business.

Maintenance is incremental and never rebuilds the storage: ``add`` fills
the next column of a geometrically grown matrix and ``remove`` tombstones
its column with NaN, which no comparison passes (as is every column never
used).  Tombstones are compacted away, preserving insertion order, once
they rival the live columns, so a match is one pass over at most
``2 x live`` columns.

Candidates come back in insertion order, and each answer is charged
``tests = len(matcher)``: one logical membership test per stored
subscription, what a flat scan would do.

A matcher is bound to the schema of its first subscription; a
subscription or publication of any other schema is rejected with
:class:`~repro.model.errors.ValidationError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import boxes_containing, boxes_meeting
from repro.model.errors import ValidationError
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription

__all__ = ["BACKEND_NAMES", "MatchCandidates", "Matcher", "check_backend_label"]

#: labels still accepted where a matcher backend used to be chosen
#: (``ScenarioSpec.engine_backend``, ``BrokerNetwork(matcher_backend=)``,
#: ``MatchingEngine(backend=)``, ``ShardedMatchingEngine(backend=)``);
#: every label runs the one :class:`Matcher`
BACKEND_NAMES = ("linear", "counting", "selectivity")

#: matching subscriptions (insertion order) plus the tests charged for them
MatchCandidates = Tuple[List[Subscription], int]

#: smallest array capacity allocated (and smallest tombstone debt compacted)
_MIN_CAPACITY = 8


def check_backend_label(name: str) -> None:
    """Validate a matcher-backend label; raises :class:`ValueError`."""
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown matcher backend {name!r}; expected one of {BACKEND_NAMES}"
        )


class Matcher:
    """Insertion-ordered subscriptions of one schema as signed columns."""

    def __init__(self) -> None:
        #: the schema of the first subscription stored, fixed from then on
        self.schema: Optional[Schema] = None
        #: signed bounds, one column per row in use; NaN marks a tombstone
        self._signed = np.empty((0, 0))
        #: rows in use, tombstones included
        self._size = 0
        self._dead = 0
        self._subscriptions: List[Optional[Subscription]] = []
        self._rows: Dict[str, int] = {}

    def _check_schema(self, schema: Schema, what: str) -> None:
        if schema is not self.schema and schema != self.schema:
            raise ValidationError(f"{what} schema does not match the matcher's")

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> None:
        """Store a subscription (fills one column; never rebuilds)."""
        if subscription.id in self._rows:
            raise ValidationError(
                f"subscription {subscription.id!r} is already indexed"
            )
        if self.schema is None:
            self.schema = subscription.schema
            self._signed = np.empty((2 * subscription.m, 0))
        else:
            self._check_schema(subscription.schema, "subscription")
        row = self._size
        if row == self._signed.shape[1]:
            self._resize(max(_MIN_CAPACITY, 2 * row), slice(0, row))
        m = subscription.m
        self._signed[:m, row] = subscription.lows
        np.negative(subscription.highs, out=self._signed[m:, row])
        self._subscriptions.append(subscription)
        self._rows[subscription.id] = row
        self._size += 1

    def remove(self, subscription_id: str) -> bool:
        """Drop a subscription (tombstones its column); ``False`` if unknown."""
        row = self._rows.pop(subscription_id, None)
        if row is None:
            return False
        self._signed[:, row] = np.nan
        self._subscriptions[row] = None
        self._dead += 1
        if self._dead >= _MIN_CAPACITY and 2 * self._dead >= self._size:
            self._compact()
        return True

    def _resize(self, capacity: int, keep) -> None:
        """Move the ``keep`` columns to the front of a fresh NaN matrix."""
        signed = np.full((self._signed.shape[0], capacity), np.nan)
        kept = self._signed[:, keep]
        signed[:, : kept.shape[1]] = kept
        self._signed = signed

    def _compact(self) -> None:
        """Drop tombstoned columns, preserving the insertion order of the rest."""
        keep = [i for i, s in enumerate(self._subscriptions) if s is not None]
        self._resize(max(_MIN_CAPACITY, len(keep)), keep)
        self._subscriptions = [self._subscriptions[i] for i in keep]
        self._rows = {s.id: i for i, s in enumerate(self._subscriptions)}
        self._size = len(keep)
        self._dead = 0

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match_candidates(self, publication: Publication) -> MatchCandidates:
        """``(subscriptions holding publication, tests charged)``.

        One point needs no split: the kernel on a 1-D limit, at a third of
        the batched routine's fixed cost (the engine matches its
        publications one at a time).
        """
        tests = len(self._rows)
        if not tests:
            return [], 0
        self._check_schema(publication.schema, "publication")
        values = publication.values
        hits = boxes_meeting(
            self._signed[:, : self._size], np.concatenate((values, -values))
        )
        subscriptions = self._subscriptions
        return [subscriptions[i] for i in hits.nonzero()[0].tolist()], tests

    def match_batch(
        self,
        publications: Sequence[Publication],
        values: Optional[np.ndarray] = None,
    ) -> List[MatchCandidates]:
        """:meth:`match_candidates` of every publication, in one kernel call
        per chunk (:func:`repro.core.arena.boxes_containing`).

        ``values`` optionally carries the publications' points pre-stacked
        as a ``(len(publications), m)`` array (e.g. a publication batch
        message's structure-of-arrays view), so they are not restacked.
        """
        tests = len(self._rows)
        if not tests or not len(publications):
            return [([], 0) for _ in publications]
        schema = self.schema
        for publication in publications:
            if publication.schema is not schema:
                self._check_schema(publication.schema, "publication")
        if values is None:
            values = np.array([p.values for p in publications])
        subscriptions = self._subscriptions
        return [
            ([subscriptions[column] for column in columns], tests)
            for columns in boxes_containing(self._signed[:, : self._size], values)
        ]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._rows
