"""Sharding is an execution mode, not a semantic one.

A sharded run must be indistinguishable from the single-process run in
everything the repository treats as ground truth: delivery sets, network
metrics, and the golden trace hashes.  These sweeps pin that equivalence
(shards=0 vs 2 vs 4, across all five reduction policies on two scenario
shapes), plus the fixed shard→seed mapping and partitioner stability the
determinism story depends on — a silent change to either would reshuffle
every per-shard RSPC stream while the tests above kept passing on the
network oracle (which consumes no randomness).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.model import Schema, Subscription
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.events import EventAction, compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.shard.engine import ShardedMatchingEngine, ShardedOracleBackend
from repro.shard.partition import HashPartitioner, RangePartitioner, shard_seed

POLICIES = ("none", "pairwise", "group", "merging", "hybrid")

SEED = 7

#: keys stripped from report comparisons (wall-clock dependent)
VOLATILE = {"wall_time", "events_per_second"}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _compiled(name: str, policy: str):
    spec = dataclasses.replace(get_scenario(name), policy=policy)
    return spec, compile_scenario(spec, SEED)


def _run(spec, compiled, shards: int):
    return ScenarioRunner(
        spec, seed=SEED, backend="network", shards=shards
    ).run(compiled)


class TestNetworkDifferential:
    """shards=0 vs 2 vs 4: byte-identical reports on the network backend."""

    @pytest.mark.parametrize("scenario", ("t0-smoke", "t1-churn"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_sharded_reports_identical(self, scenario, policy):
        spec, compiled = _compiled(scenario, policy)
        baseline = _run(spec, compiled, shards=0)
        for shards in (2, 4):
            sharded = _run(spec, compiled, shards=shards)
            assert sharded.trace_hash == baseline.trace_hash, (
                f"{scenario}/{policy}: trace hash diverged at shards={shards}"
            )
            assert _strip(sharded.to_dict()) == _strip(baseline.to_dict())


class TestEngineNotificationInvariance:
    """Engine mode: deterministic-policy deliveries survive partitioning.

    Test/decision counters are partition-dependent by design (each shard
    sees only its own candidates), but what gets delivered to whom must
    not change for the deterministic policies.
    """

    @pytest.mark.parametrize("policy", ("none", "pairwise"))
    def test_notifications_equal_across_shard_counts(self, policy):
        spec, compiled = _compiled("t0-smoke", policy)

        def deliveries(shards: int):
            engine = ShardedMatchingEngine(
                shards=shards,
                policy=policy,
                delta=spec.delta,
                max_iterations=spec.max_iterations,
                merge_budget=spec.merge_budget,
                seed=SEED,
            )
            try:
                stream = []
                for event in compiled.events:
                    if event.action is EventAction.SUBSCRIBE:
                        engine.subscribe(event.subscription)
                    elif event.action is EventAction.UNSUBSCRIBE:
                        engine.unsubscribe(event.subscription_id)
                    else:
                        result = engine.match(event.publication)
                        stream.append(sorted(result.subscribers))
                return stream, engine.stats["notifications"]
            finally:
                engine.close()

        baseline_stream, baseline_total = deliveries(1)
        for shards in (2, 4):
            stream, total = deliveries(shards)
            assert stream == baseline_stream
            assert total == baseline_total


class TestShardSeedStability:
    """The shard→seed mapping is part of the reproducibility contract."""

    def test_mapping_is_stable(self):
        # Golden first draws of each shard-seeded stream: any refactor
        # that changes the mapping (salt, entropy order, spawn scheme)
        # silently reseeds every per-shard RSPC stream and invalidates
        # recorded runs while every all-equal assertion keeps passing.
        import numpy as np

        def first_draw(seed: int, index: int) -> int:
            rng = np.random.default_rng(shard_seed(seed, index))
            return int(rng.integers(2**63))

        assert first_draw(0, 0) == 5898129714599723975
        assert first_draw(7, 0) == 2017498146772375479
        assert first_draw(7, 1) == 3787493250839804920
        assert first_draw(20060331, 3) == 3104167683219270111

    def test_mapping_is_injective_over_small_ranges(self):
        import numpy as np

        seen = {
            int(np.random.default_rng(shard_seed(seed, index)).integers(2**63))
            for seed in range(8)
            for index in range(16)
        }
        assert len(seen) == 8 * 16


class TestPartitionerStability:
    def _subscription(self, subscriber: str, index: int) -> Subscription:
        schema = Schema.uniform_integer(2, 0, 100)
        return Subscription.from_constraints(
            schema,
            {"x1": (0, 10)},
            subscription_id=f"s-{index}",
            subscriber=subscriber,
        )

    def test_hash_partitioner_keys_on_subscriber(self):
        partitioner = HashPartitioner(4)
        a1 = self._subscription("client-a", 1)
        a2 = self._subscription("client-a", 2)
        b = self._subscription("client-b", 3)
        assert partitioner.shard_of(a1) == partitioner.shard_of(a2)
        # Golden assignments (crc32): a silent hash change would reshuffle
        # every subscription while all-equal assertions kept passing.
        assert partitioner.shard_of(a1) == 2
        assert partitioner.shard_of(b) == 0

    def test_hash_partitioner_falls_back_to_id(self):
        partitioner = HashPartitioner(4)
        anonymous = self._subscription(None, 9)
        assert partitioner.shard_of(anonymous) == 0

    def test_range_partitioner_buckets_by_midpoint(self):
        schema = Schema.uniform_integer(2, 0, 100)
        partitioner = RangePartitioner(4, bounds=(0.0, 100.0))
        low = Subscription.from_constraints(
            schema, {"x1": (0, 10)}, subscription_id="low"
        )
        high = Subscription.from_constraints(
            schema, {"x1": (90, 100)}, subscription_id="high"
        )
        assert partitioner.shard_of(low) == 0
        assert partitioner.shard_of(high) == 3


class TestShardedOracleParity:
    """The sharded delivery oracle agrees with the in-process matcher."""

    def test_match_parity_with_the_matcher(self):
        from repro.matching.matcher import Matcher

        spec, compiled = _compiled("t0-smoke", "none")
        reference = Matcher()
        sharded = ShardedOracleBackend(shards=3)
        try:
            for event in compiled.events:
                if event.action is EventAction.SUBSCRIBE:
                    reference.add(event.subscription)
                    sharded.add(event.subscription)
                elif event.action is EventAction.UNSUBSCRIBE:
                    reference.remove(event.subscription_id)
                    sharded.remove(event.subscription_id)
                else:
                    ref_matched, _ = reference.match_candidates(
                        event.publication
                    )
                    shard_matched, _ = sharded.match_candidates(
                        event.publication
                    )
                    assert [
                        (s.id, s.subscriber) for s in shard_matched
                    ] == [(s.id, s.subscriber) for s in ref_matched]
        finally:
            sharded.close()
