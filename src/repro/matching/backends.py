"""Pluggable matcher backends — the engine's vectorisation seam.

:class:`~repro.matching.engine.MatchingEngine` (and the broker layer's
:class:`~repro.broker.routing.RoutingTable`) do not scan subscription
lists themselves; they delegate every membership test to a
:class:`MatcherBackend`.  A backend owns one *set* of subscriptions — the
engine keeps two instances, one for the active set and one for the
covered set — and answers ``match_candidates``: which stored
subscriptions match a publication, and how many membership tests were
charged for the answer.

Three backends are provided, each descending from a family of matchers
the paper surveys in Section 7 (related work):

``linear``
    Algorithm 5's own mechanism: ``match_candidates`` is a straight
    Python scan that charges one test per stored subscription.  The
    *scan* is the seed engine's behaviour, kept bit-for-bit as the oracle
    everything vectorised is differentially tested against; the backend's
    *batch* path is not a scan at all but the shared kernel below, over
    signed columns it maintains alongside the dictionary.
``counting``
    The counting algorithm of Yan & Garcia-Molina — the ancestor of the
    "deterministic matcher" family in Section 7 — realised as one
    vectorised NumPy pass over a signed bound matrix
    (:class:`~repro.matching.counting_index.CountingIndex`).
``selectivity``
    Carzaniga & Wolf's selectivity-ordered forwarding tables (also
    Section 7): attributes are evaluated most-selective-first so the
    candidate set collapses early
    (:class:`~repro.matching.selectivity_index.SelectivityIndex`).

Every ``match_batch`` — and therefore every broker route lookup and the
network's delivery oracle, whichever backend is plugged in — is one
routine, :func:`repro.core.arena.boxes_containing`: the checker's box
test over incrementally kept signed columns
(:class:`~repro.matching.counting_index.SignedColumns`), one kernel call
and one ``nonzero`` per burst under one workspace budget.  No backend
has a box test of its own.

All backends return candidates in insertion order, so every consumer
observes the same candidate stream whichever backend is plugged in; only
the amount of per-publication work differs.  The vectorised backends
charge ``tests = len(backend)`` (one logical test per candidate row
consulted), which equals the linear backend's count for a flat scan.

Backends are deliberately schema-agnostic: vectorised storage is
partitioned per schema on first sight of a subscription, so a backend can
index a routing table that (in principle) carries mixed-schema traffic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.matching.counting_index import CountingIndex, SignedColumns
from repro.matching.selectivity_index import SelectivityIndex
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription

__all__ = [
    "BACKEND_NAMES",
    "CountingBackend",
    "LinearBackend",
    "MatcherBackend",
    "SelectivityBackend",
    "make_backend",
]

#: names accepted by :func:`make_backend` (and everything layered above it:
#: ``MatchingEngine(backend=…)``, ``RoutingTable(matcher_backend=…)``,
#: ``ScenarioSpec.engine_backend``, ``repro-scenarios run --engine-backend``)
BACKEND_NAMES = ("linear", "counting", "selectivity")

#: candidate subscriptions plus the membership tests charged for them
MatchCandidates = Tuple[List[Subscription], int]


class MatcherBackend(ABC):
    """Incremental membership index over one set of subscriptions."""

    name: str = "?"

    @abstractmethod
    def add(self, subscription: Subscription) -> None:
        """Index a subscription; raises if its identifier is already held."""

    @abstractmethod
    def remove(self, subscription_id: str) -> bool:
        """Drop a subscription; returns ``False`` when it was unknown."""

    @abstractmethod
    def match_candidates(self, publication: Publication) -> MatchCandidates:
        """``(matching subscriptions in insertion order, tests charged)``."""

    def match_batch(
        self,
        publications: Sequence[Publication],
        values: Optional[np.ndarray] = None,
    ) -> List[MatchCandidates]:
        """Match a burst of publications; equals mapping ``match_candidates``.

        Vectorised backends override this to amortise array setup across
        the burst.  ``values`` optionally carries the publications' points
        pre-stacked as a ``(len(publications), m)`` array (e.g. a
        :class:`~repro.broker.messages.PublicationBatchMessage`'s
        structure-of-arrays view) so a backend that consumes the stacked
        form does not restack it.
        """
        return [self.match_candidates(p) for p in publications]

    def add_all(self, subscriptions: Iterable[Subscription]) -> None:
        """Index many subscriptions in order."""
        for subscription in subscriptions:
            self.add(subscription)

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __contains__(self, subscription_id: object) -> bool: ...


class LinearBackend(MatcherBackend):
    """Algorithm 5's flat scan — the seed engine's behaviour, kept as oracle."""

    name = "linear"

    def __init__(self) -> None:
        self._subscriptions: Dict[str, Subscription] = {}
        #: the same subscriptions, in the same order, as signed columns for
        #: the batched path; ``None`` from the moment subscriptions of two
        #: attribute counts are stored until the backend is next empty (the
        #: scan handles mixed sets; one matrix cannot)
        self._columns: Optional[SignedColumns] = None

    def add(self, subscription: Subscription) -> None:
        if subscription.id in self._subscriptions:
            raise ValueError(
                f"subscription {subscription.id!r} is already indexed"
            )
        if not self._subscriptions:
            self._columns = SignedColumns(subscription.m)
        elif self._columns is not None and self._columns.m != subscription.m:
            self._columns = None
        self._subscriptions[subscription.id] = subscription
        if self._columns is not None:
            self._columns.add(subscription)

    def remove(self, subscription_id: str) -> bool:
        removed = self._subscriptions.pop(subscription_id, None) is not None
        if removed and self._columns is not None:
            self._columns.remove(subscription_id)
        return removed

    def match_candidates(self, publication: Publication) -> MatchCandidates:
        values = publication.values_list
        matched = [
            subscription
            for subscription in self._subscriptions.values()
            if subscription.contains_values(values)
        ]
        return matched, len(self._subscriptions)

    def match_batch(
        self,
        publications: Sequence[Publication],
        values: Optional[np.ndarray] = None,
    ) -> List[MatchCandidates]:
        """The whole burst through the shared box-test kernel.

        Results — candidate order (insertion order) and the per-publication
        test charge — are identical to mapping :meth:`match_candidates`,
        which is also what answers when the stored subscriptions or the
        burst do not share one attribute count.
        """
        publications = list(publications)
        columns = self._columns
        if columns is None or not self._subscriptions or not publications:
            return [self.match_candidates(p) for p in publications]
        if values is None:
            if any(p.values.shape != (columns.m,) for p in publications):
                return [self.match_candidates(p) for p in publications]
            values = np.array([p.values for p in publications])
        tests = len(self._subscriptions)
        return [(matched, tests) for matched in columns.containing(values)]

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._subscriptions


class _VectorisedBackend(MatcherBackend):
    """Shared plumbing of the NumPy-index-backed backends.

    Keeps one dense index per schema (created on first sight) plus an
    id→schema map, so mixed-schema subscription sets degrade gracefully
    instead of erroring.
    """

    _index_class: Type[CountingIndex]

    def __init__(self) -> None:
        self._indexes: Dict[Schema, CountingIndex] = {}
        self._schema_of: Dict[str, Schema] = {}

    def add(self, subscription: Subscription) -> None:
        if subscription.id in self._schema_of:
            raise ValueError(
                f"subscription {subscription.id!r} is already indexed"
            )
        index = self._indexes.get(subscription.schema)
        if index is None:
            index = self._index_class(subscription.schema)
            self._indexes[subscription.schema] = index
        index.add(subscription)
        self._schema_of[subscription.id] = subscription.schema

    def remove(self, subscription_id: str) -> bool:
        schema = self._schema_of.pop(subscription_id, None)
        if schema is None:
            return False
        return self._indexes[schema].remove(subscription_id)

    def match_candidates(self, publication: Publication) -> MatchCandidates:
        index = self._indexes.get(publication.schema)
        if index is None:
            return [], 0
        return index.match(publication), len(index)

    def match_batch(
        self,
        publications: Sequence[Publication],
        values: Optional[np.ndarray] = None,
    ) -> List[MatchCandidates]:
        publications = list(publications)
        results: List[MatchCandidates] = [([], 0) for _ in publications]
        by_schema: Dict[Schema, List[int]] = {}
        for position, publication in enumerate(publications):
            by_schema.setdefault(publication.schema, []).append(position)
        for schema, positions in by_schema.items():
            index = self._indexes.get(schema)
            if index is None:
                continue
            tests = len(index)
            batch = index.match_batch([publications[i] for i in positions])
            for position, matched in zip(positions, batch):
                results[position] = (matched, tests)
        return results

    def __len__(self) -> int:
        return len(self._schema_of)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._schema_of


class CountingBackend(_VectorisedBackend):
    """Vectorised counting-algorithm backend (Yan & Garcia-Molina)."""

    name = "counting"
    _index_class = CountingIndex


class SelectivityBackend(_VectorisedBackend):
    """Selectivity-ordered elimination backend (Carzaniga & Wolf)."""

    name = "selectivity"
    _index_class = SelectivityIndex


def make_backend(name: str) -> MatcherBackend:
    """Instantiate a matcher backend by registry name."""
    if name == "linear":
        return LinearBackend()
    if name == "counting":
        return CountingBackend()
    if name == "selectivity":
        return SelectivityBackend()
    raise ValueError(
        f"unknown matcher backend {name!r}; expected one of {BACKEND_NAMES}"
    )
