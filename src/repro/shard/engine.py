"""Façades presenting the shard pool behind the existing seams.

Two consumers want sharded execution, through two different surfaces:

* the scenario runner's ``engine`` backend drives a
  :class:`~repro.matching.engine.MatchingEngine`-shaped object —
  :class:`ShardedMatchingEngine` mirrors the surface it uses
  (``subscribe``/``unsubscribe``/``match``/``match_batch``/``stats``/
  ``len``) over a pool of per-shard engines, each running the covering
  policy on its slice of the subscription space with its own seeded
  checker stream;
* the broker network's global delivery oracle is a
  :class:`~repro.matching.matcher.Matcher` —
  :class:`ShardedOracleBackend` implements its ``add``/``remove``/
  ``match_candidates``/``match_batch`` surface over an ``index``-mode
  pool, merging per-shard matches back into global insertion order (the
  coordinator's arrival sequence), so the oracle's answers are
  *identical* to the unsharded matcher's and the network's metrics/trace
  hashes do not move at any worker count.

Both own their :class:`~repro.shard.coordinator.ShardCoordinator` and
must be ``close()``-d (or used as context managers) to reap the worker
processes and their shared-memory segments.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.matching.matcher import MatchCandidates, check_backend_label
from repro.model.publications import Publication
from repro.model.subscriptions import Subscription
from repro.shard.coordinator import ShardCoordinator

__all__ = ["ShardedMatchResult", "ShardedMatchingEngine", "ShardedOracleBackend"]

#: publications dispatched per coordinator round-trip (bounds the pickled
#: burst size; results are independent of the chunking)
_MATCH_CHUNK = 4096


class _SubscriptionRef:
    """What the oracle's consumers actually read off a matched subscription.

    The broker network keys its expected-notification records on
    ``subscription.id`` alone (plus ``subscriber`` for engine-style
    consumers), so shard workers ship these two strings per match instead
    of pickling whole subscription objects back.
    """

    __slots__ = ("id", "subscriber")

    def __init__(self, subscription_id: str, subscriber: Optional[str]):
        self.id = subscription_id
        self.subscriber = subscriber

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"_SubscriptionRef(id={self.id!r})"


class ShardedOracleBackend:
    """A :class:`~repro.matching.matcher.Matcher` whose subscriptions live
    in shards.

    Matching semantics are exactly the per-shard matchers' — pure
    membership, no covering, no randomness — so the answers equal the
    unsharded matcher's for any shard count; per-shard results are merged
    back into global insertion order via the coordinator's arrival
    sequence.
    """

    def __init__(self, shards: int, partitioner: Any = "hash", prefilter: str = "hull"):
        self._coordinator = ShardCoordinator(
            shards,
            mode="index",
            partitioner=partitioner,
            prefilter=prefilter,
        )

    @property
    def coordinator(self) -> ShardCoordinator:
        return self._coordinator

    def add(self, subscription: Subscription) -> None:
        self._coordinator.route_subscribe(subscription)

    def remove(self, subscription_id: str) -> bool:
        return self._coordinator.route_unsubscribe(subscription_id) is not None

    def match_candidates(self, publication: Publication) -> MatchCandidates:
        return self.match_batch([publication])[0]

    def match_batch(
        self,
        publications: Sequence[Publication],
        values: Optional[np.ndarray] = None,
    ) -> List[MatchCandidates]:
        publications = list(publications)
        results: List[MatchCandidates] = []
        coordinator = self._coordinator
        for start in range(0, len(publications), _MATCH_CHUNK):
            chunk = publications[start : start + _MATCH_CHUNK]
            collected = coordinator.match(chunk)
            for position in range(len(chunk)):
                refs: List[Tuple[int, _SubscriptionRef]] = []
                tests = 0
                for shard_entries in collected:
                    entry = shard_entries.get(position)
                    if entry is None:
                        continue
                    shard_refs, shard_tests = entry
                    tests += shard_tests
                    for subscription_id, subscriber in shard_refs:
                        refs.append(
                            (
                                coordinator.sequence_of(subscription_id),
                                _SubscriptionRef(subscription_id, subscriber),
                            )
                        )
                refs.sort(key=lambda pair: pair[0])
                results.append(([ref for _, ref in refs], tests))
        return results

    def __len__(self) -> int:
        return len(self._coordinator)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._coordinator

    def sync(self) -> None:
        """Drain the op pipes (surfaces any deferred worker error)."""
        self._coordinator.sync()

    def close(self) -> None:
        self._coordinator.close()

    def __enter__(self) -> "ShardedOracleBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedMatchResult:
    """Per-publication outcome of the sharded decision pool.

    Mirrors the fields of :class:`~repro.matching.engine.MatchResult`
    that the runner/benchmarks consume; matched subscriptions stay in
    their shards, so only their count travels back.
    """

    __slots__ = (
        "publication",
        "subscribers",
        "matched_count",
        "active_tests",
        "covered_tests",
    )

    def __init__(
        self,
        publication: Publication,
        subscribers: Tuple[str, ...],
        matched_count: int,
        active_tests: int,
        covered_tests: int,
    ):
        self.publication = publication
        self.subscribers = subscribers
        self.matched_count = matched_count
        self.active_tests = active_tests
        self.covered_tests = covered_tests

    @property
    def total_tests(self) -> int:
        return self.active_tests + self.covered_tests

    def __bool__(self) -> bool:
        return bool(self.matched_count)


class ShardedMatchingEngine:
    """The parallel decision pool behind the matching-engine surface.

    Each worker runs a complete engine — store, covering policy,
    probabilistic checker — on the subscriptions its partitioner assigns
    to it; checker streams come from the fixed shard→seed mapping, so a
    given (seed, shard count) is fully reproducible.  Covering decisions
    are taken against per-shard candidate sets, which is what makes the
    decision phase parallel *and* cheaper (candidate sets shrink by the
    shard factor); notifications remain exactly the unsharded engine's
    for deterministic policies, because a subscription and anything that
    pair-wise covers it land on the same shard only when the partitioner
    co-locates them — and a shard that suppresses locally still holds
    the covered subscription, so Algorithm 5's gate re-finds it.
    Test/decision counters are partition-dependent by nature and are
    reported per shard.

    ``backend`` is a matcher-backend label (one of
    :data:`~repro.matching.matcher.BACKEND_NAMES`).  It is validated and
    selects nothing: it is kept only because the benchmark harness still
    passes it, and goes with ROADMAP item 4, Half B.
    """

    def __init__(
        self,
        shards: int,
        policy: Any = "group",
        backend: str = "linear",
        delta: float = 0.001,
        max_iterations: int = 1000,
        merge_budget: float = 0.1,
        seed: int = 0,
        partitioner: Any = "hash",
        prefilter: str = "hull",
    ):
        from repro.core.policies import policy_value

        check_backend_label(backend)
        self._coordinator = ShardCoordinator(
            shards,
            mode="engine",
            policy=policy_value(policy),
            delta=delta,
            max_iterations=max_iterations,
            merge_budget=merge_budget,
            seed=seed,
            partitioner=partitioner,
            prefilter=prefilter,
        )
        self.stats: Dict[str, int] = {
            "publications": 0,
            "notifications": 0,
            "active_tests": 0,
            "covered_tests": 0,
        }

    @property
    def coordinator(self) -> ShardCoordinator:
        return self._coordinator

    @property
    def shards(self) -> int:
        return self._coordinator.shards

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(self, subscription: Subscription) -> None:
        """Route a subscription to its owning shard (fire-and-forget)."""
        self._coordinator.route_subscribe(subscription)

    def subscribe_all(self, subscriptions: Iterable[Subscription]) -> None:
        for subscription in subscriptions:
            self.subscribe(subscription)

    def unsubscribe(self, subscription_id: str) -> Tuple[Subscription, ...]:
        """Route a removal; promotions stay shard-local, so this is ``()``."""
        self._coordinator.route_unsubscribe(subscription_id)
        return ()

    def __len__(self) -> int:
        return len(self._coordinator)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, publication: Publication) -> ShardedMatchResult:
        return self.match_batch([publication])[0]

    def match_all(
        self, publications: Iterable[Publication]
    ) -> List[ShardedMatchResult]:
        return self.match_batch(list(publications))

    def match_batch(
        self, publications: Sequence[Publication]
    ) -> List[ShardedMatchResult]:
        publications = list(publications)
        results: List[ShardedMatchResult] = []
        for start in range(0, len(publications), _MATCH_CHUNK):
            chunk = publications[start : start + _MATCH_CHUNK]
            collected = self._coordinator.match(chunk)
            for position, publication in enumerate(chunk):
                subscribers: Dict[str, None] = {}
                matched_count = 0
                active_tests = 0
                covered_tests = 0
                for shard_entries in collected:
                    entry = shard_entries.get(position)
                    if entry is None:
                        continue
                    shard_subscribers, shard_matched, shard_active, shard_covered = entry
                    for subscriber in shard_subscribers:
                        subscribers[subscriber] = None
                    matched_count += shard_matched
                    active_tests += shard_active
                    covered_tests += shard_covered
                result = ShardedMatchResult(
                    publication,
                    tuple(subscribers),
                    matched_count,
                    active_tests,
                    covered_tests,
                )
                self.stats["publications"] += 1
                self.stats["notifications"] += len(result.subscribers)
                self.stats["active_tests"] += active_tests
                self.stats["covered_tests"] += covered_tests
                results.append(result)
        return results

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Wait for every shard to drain its op stream.

        Surfaces deferred worker errors and — because routing is
        fire-and-forget — is what gives per-phase wall times an honest
        meaning: call it at a phase boundary so buffered decision work is
        attributed to the phase that generated it.
        """
        self._coordinator.sync()

    @property
    def shard_busy_seconds(self) -> Tuple[float, ...]:
        """Cumulative per-worker busy time (the load-balance measure)."""
        return self._coordinator.busy_seconds

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-shard statistics (engine counters, store stats, arena)."""
        return self._coordinator.stats()

    def close(self) -> None:
        self._coordinator.close()

    def __enter__(self) -> "ShardedMatchingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
