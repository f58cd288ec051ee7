"""The sharded decision pool behind the matching-engine surface.

The scenario runner's ``engine`` backend drives a
:class:`~repro.matching.engine.MatchingEngine`-shaped object;
:class:`ShardedMatchingEngine` mirrors the surface it uses
(``subscribe``/``unsubscribe``/``match``/``match_batch``/``stats``/
``len``) over a pool of per-shard engines, each running the covering
policy on its slice of the subscription space with its own seeded
checker stream.

The façade owns its :class:`~repro.shard.coordinator.ShardCoordinator`
and must be ``close()``-d (or used as a context manager) to reap the
worker processes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.matching.engine import EngineCounters
from repro.matching.matcher import check_backend_label
from repro.model.publications import Publication
from repro.model.subscriptions import Subscription
from repro.shard.coordinator import ShardCoordinator, burst_schema

__all__ = ["ShardedMatchResult", "ShardedMatchingEngine"]

#: publications dispatched per coordinator round-trip (bounds the value
#: block one pipe message carries, ``_MATCH_CHUNK x m`` floats; results are
#: independent of the chunking)
_MATCH_CHUNK = 4096


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


class ShardedMatchingEngine:
    """The parallel decision pool behind the matching-engine surface.

    Each worker runs a complete engine — store, covering policy,
    probabilistic checker — on the subscriptions its partitioner assigns
    to it; checker streams come from the fixed shard→seed mapping, so a
    given (seed, shard count) is fully reproducible.  Covering decisions
    are taken against per-shard candidate sets, which is what makes the
    decision phase parallel *and* cheaper (candidate sets shrink by the
    shard factor); notifications remain exactly the unsharded engine's
    for deterministic policies, because a shard that suppresses locally
    still holds the covered subscription, so Algorithm 5's gate re-finds
    it.  Test/decision counters are partition-dependent by nature and are
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
    ):
        from repro.core.policies import policy_value

        check_backend_label(backend)
        self._coordinator = ShardCoordinator(
            shards,
            policy=policy_value(policy),
            delta=delta,
            max_iterations=max_iterations,
            merge_budget=merge_budget,
            seed=seed,
            partitioner=partitioner,
        )
        self.counters = EngineCounters()

    @property
    def stats(self) -> Mapping[str, int]:
        """The cumulative match counters over every shard, read-only."""
        return self.counters.stats

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
        self.counters.subscriptions.value = len(self._coordinator)

    def unsubscribe(self, subscription_id: str) -> Tuple[Subscription, ...]:
        """Route a removal; promotions stay shard-local, so this is ``()``."""
        self._coordinator.route_unsubscribe(subscription_id)
        self.counters.subscriptions.value = len(self._coordinator)
        return ()

    def __len__(self) -> int:
        return len(self._coordinator)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, publication: Publication) -> ShardedMatchResult:
        return self.match_batch([publication])[0]

    def match_batch(
        self, publications: Sequence[Publication]
    ) -> List[ShardedMatchResult]:
        publications = list(publications)
        if publications:
            # the whole burst, not chunk by chunk: nothing is sent for a
            # burst that mixes schemas
            burst_schema(publications)
        results: List[ShardedMatchResult] = []
        for start in range(0, len(publications), _MATCH_CHUNK):
            chunk = publications[start : start + _MATCH_CHUNK]
            replies = self._coordinator.match(chunk)
            for position, publication in enumerate(chunk):
                subscribers: Dict[str, None] = {}
                matched_count = 0
                active_tests = 0
                covered_tests = 0
                for reply in replies:
                    shard_subscribers, shard_matched, shard_active, shard_covered = (
                        reply[position]
                    )
                    for subscriber in shard_subscribers:
                        subscribers[subscriber] = None
                    matched_count += shard_matched
                    active_tests += shard_active
                    covered_tests += shard_covered
                results.append(
                    ShardedMatchResult(
                        publication,
                        tuple(subscribers),
                        matched_count,
                        active_tests,
                        covered_tests,
                    )
                )
        self.counters.count(results)
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

    def worker_stats(self) -> List[Dict[str, Any]]:
        """Per-shard statistics (engine counters, store stats, arena)."""
        return self._coordinator.stats()

    def close(self) -> None:
        self._coordinator.close()

    def __enter__(self) -> "ShardedMatchingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
