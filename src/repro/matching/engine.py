"""Matching engine (Algorithm 5).

The engine answers "which subscriptions does publication ``p`` match, and
which subscribers must be notified?".  Following Algorithm 5, the active
(uncovered) subscriptions are checked first; only when at least one of them
matches does the engine look at the covered subscriptions.

The two sets are the engine's store's own pools — two
:class:`~repro.core.arena.Matcher` objects — and are tested flat, in one
vectorised pass each.  The gate is what makes this sound: the store
keeps every withheld subscription's coverers and every merged member's
box active (:mod:`repro.core.store`), and a publication that matches a
covered subscription matches one of them — a single one under pair-wise
covering, one of the union under group covering, the box of a member —
so skipping the covered set when no active subscription matched never
loses a notification.  An answer is charged
``active_tests = len(active)`` and, behind the gate,
``covered_tests = len(covered)``.

The multi-level cover index sketched at the end of Section 4.4 (walk
only the covered subscriptions below the coverers that matched) is not
kept: it charges fewer tests, but on the high-redundancy engine benchmark
(``cycle-engine``) the flat vectorised pass replays 2.4-3x faster than
the Python walk.

The engine owns a :class:`~repro.core.store.SubscriptionStore` — the
covering-state machine a broker keeps per link — and keeps no copy of
it: a subscription or an unsubscription is the store's to apply, and the
next publication is matched against the pools as the store left them.
It exposes the subscribe/unsubscribe workflow used by the examples and by
the scenario runner's engine backend.

Both this engine and the sharded pool (:mod:`repro.shard.engine`) count
through one :class:`EngineCounters`: four registry counters charged by
one function, and a gauge of the stored subscriptions.  The runner's
reports are diffs of its registry; :attr:`MatchingEngine.stats` is a
read-only view of the four counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies import DEFAULT_MERGE_BUDGET, DeltaAccount
from repro.core.store import CoveringPolicyName, StoreDecision, SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.matching.matcher import check_backend_label
from repro.model.publications import Publication
from repro.model.subscriptions import Subscription
from repro.obs.instruments import InstrumentRegistry
from repro.obs.probes import stage

__all__ = ["ENGINE_COUNTERS", "EngineCounters", "MatchResult", "MatchingEngine"]

#: an engine's counters (registry ``engine.<name>``), then its gauge
ENGINE_COUNTERS = ("publications", "notifications", "active_tests", "covered_tests")


class EngineCounters:
    """The counters of an engine, in a registry of their own.

    ``engine.<name>`` for each name in :data:`ENGINE_COUNTERS`, charged
    by :meth:`count`, and the gauge ``engine.subscriptions_total``, the
    number of subscriptions clients registered (merged boxes excluded),
    which the engine sets.
    """

    def __init__(self) -> None:
        self.registry = InstrumentRegistry()
        self._counters = [
            self.registry.counter(f"engine.{name}") for name in ENGINE_COUNTERS
        ]
        self.subscriptions = self.registry.gauge("engine.subscriptions_total")

    def count(self, results) -> None:
        """Charge matched publications (anything with ``subscribers``,
        ``active_tests`` and ``covered_tests``)."""
        publications, notifications, active_tests, covered_tests = self._counters
        publications.value += len(results)
        notifications.value += sum(len(r.subscribers) for r in results)
        active_tests.value += sum(r.active_tests for r in results)
        covered_tests.value += sum(r.covered_tests for r in results)

    @property
    def stats(self) -> Mapping[str, int]:
        """The four counters, read-only."""
        return MappingProxyType(
            {name: counter.value for name, counter in zip(ENGINE_COUNTERS, self._counters)}
        )

    @staticmethod
    def report(delta: Mapping[str, float]) -> Dict[str, float]:
        """The report of a registry diff: one phase's metrics, or totals."""
        return {
            name: delta[f"engine.{name}"]
            for name in ENGINE_COUNTERS + ("subscriptions_total",)
        }


@dataclass
class MatchResult:
    """Outcome of matching one publication.

    Attributes
    ----------
    publication:
        The matched publication.
    matched:
        Every subscription (active or covered) that matches it.
    subscribers:
        De-duplicated subscriber identifiers to notify.
    active_tests:
        Membership tests charged against the active set (its size).
    covered_tests:
        Membership tests charged against the covered set: its size, or 0
        when no active subscription matched (Algorithm 5).
    """

    publication: Publication
    matched: Tuple[Subscription, ...]
    subscribers: Tuple[str, ...]
    active_tests: int
    covered_tests: int


class MatchingEngine:
    """Subscription registry + Algorithm 5 matcher.

    Parameters
    ----------
    policy:
        Reduction strategy of the underlying store (``none`` /
        ``pairwise`` / ``group`` / ``merging`` / ``hybrid``).
    checker:
        Group-subsumption checker used by the ``group`` policy.
    backend:
        A matcher-backend label (one of
        :data:`~repro.matching.matcher.BACKEND_NAMES`).  It is validated
        and selects nothing: it is kept only because the benchmark harness
        and recorded traces still pass it, and goes with ROADMAP
        item 4, Half B.
    merge_budget:
        False-volume budget of the merging strategies (ignored by the
        covering-only ones).
    """

    def __init__(
        self,
        policy: CoveringPolicyName = CoveringPolicyName.GROUP,
        checker: Optional[SubsumptionChecker] = None,
        backend: str = "linear",
        merge_budget: float = DEFAULT_MERGE_BUDGET,
    ):
        check_backend_label(backend)
        self.store = SubscriptionStore(
            policy=policy, checker=checker, merge_budget=merge_budget
        )
        self.counters = EngineCounters()
        #: the error of every decision (registry only, not reported)
        self.deltas = DeltaAccount(self.counters.registry, "engine")

    @property
    def stats(self) -> Mapping[str, int]:
        """The cumulative match counters, read-only."""
        return self.counters.stats

    @property
    def arena(self):
        """The store's active pool, read for its ``compactions`` and
        ``moved_rows`` counters."""
        return self.store.active_pool

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    @stage("engine.subscribe")
    def subscribe(self, subscription: Subscription) -> StoreDecision:
        """Register a subscription, returning the store's decision.

        Raises :class:`ValueError` for an identifier the store already
        holds (a merged box's included), and
        :class:`~repro.model.errors.ValidationError` for a subscription of
        another schema, before any state changes.
        """
        # merged boxes live in the store, but no client registered them;
        # the store rejects every other held id and a foreign schema
        store = self.store
        if subscription.id in store.members:
            raise ValueError(
                f"subscription {subscription.id!r} is already registered"
            )
        decision = store.add(subscription)
        self.deltas.count((decision,))
        self.counters.subscriptions.value = len(self)
        return decision

    @stage("engine.unsubscribe")
    def unsubscribe(self, subscription_id: str) -> Tuple[Subscription, ...]:
        """Remove a subscription; returns promoted covered subscriptions.

        An identifier the engine never registered (a merged box's
        included) returns ``()`` and touches nothing.
        """
        # merged boxes live in the store, but no client registered them
        store = self.store
        if subscription_id not in store or subscription_id in store.members:
            return ()
        outcome = store.remove(subscription_id)
        self.deltas.count(outcome.reinsertions)
        self.counters.subscriptions.value = len(self)
        return outcome.promoted

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active_subscriptions(self) -> Tuple[Subscription, ...]:
        """Active (uncovered) subscriptions."""
        return self.store.active

    @property
    def covered_subscriptions(self) -> Tuple[Subscription, ...]:
        """Covered (suppressed) subscriptions."""
        return self.store.covered

    def __len__(self) -> int:
        """The subscriptions clients registered: the store's, less the
        merged boxes it made (each stands for members it also holds)."""
        return self.store.total_count - len(self.store.members)

    # ------------------------------------------------------------------
    # Matching (Algorithm 5)
    # ------------------------------------------------------------------
    @stage("engine.match")
    def match(self, publication: Publication) -> MatchResult:
        """Match a publication following Algorithm 5."""
        store = self.store
        matched, active_tests = store.active_pool.match_candidates(publication)
        covered_tests = 0
        if matched:
            covered, covered_tests = store.covered_pool.match_candidates(publication)
            matched.extend(covered)
        result = _result(publication, matched, active_tests, covered_tests)
        self.counters.count([result])
        return result

    @stage("engine.match_batch")
    def match_batch(
        self, publications: Sequence[Publication]
    ) -> List[MatchResult]:
        """Match a publication burst, amortising per-call matcher setup.

        Produces exactly the results (and statistics) of matching the
        publications one by one, but evaluates the whole burst against the
        active set in one pass, and the covered set in one pass over the
        publications that had an active hit.
        """
        publications = list(publications)
        values = self.store.active_pool.value_block(publications)
        return self._match_rows(values, publications)

    def _match_rows(
        self, values: np.ndarray, publications: Sequence[Optional[Publication]]
    ) -> List[MatchResult]:
        """Algorithm 5 over a schema-checked ``(B, m)`` block, counted, for
        :meth:`match_batch` and a shard worker; result ``i`` carries
        ``publications[i]`` (``None`` in a worker, which gets only values)."""
        store = self.store
        active = store.active_pool.match_values(values)
        hits = [row for row, (matched, _) in enumerate(active) if matched]
        covered = iter(store.covered_pool.match_values(values[hits]))
        results: List[MatchResult] = []
        for publication, (matched, active_tests) in zip(publications, active):
            covered_tests = 0
            if matched:
                more, covered_tests = next(covered)
                matched.extend(more)
            results.append(_result(publication, matched, active_tests, covered_tests))
        self.counters.count(results)
        return results


_subscriber = attrgetter("subscriber")


def _result(
    publication: Publication,
    matched: List[Subscription],
    active_tests: int,
    covered_tests: int,
) -> MatchResult:
    """One publication's answer; subscribers in first-match order."""
    subscribers = dict.fromkeys(map(_subscriber, matched))
    subscribers.pop(None, None)
    return MatchResult(
        publication, tuple(matched), tuple(subscribers), active_tests, covered_tests
    )
