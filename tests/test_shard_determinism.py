"""The sharded decision pool: same deliveries, defined failures, no leaks.

Sharding is one deployment choice — :class:`ShardedMatchingEngine` over
engine-mode workers — and must not change what gets delivered to whom
under the deterministic policies, at any shard count, through
subscription ramps, unsubscription storms and publication bursts.  The
fixed shard→seed mapping and partitioner stability are pinned by golden
values, because a silent change to either would reshuffle every
per-shard RSPC stream while all-equal assertions kept passing.

Each worker answers a burst, which crosses its pipe as one schema and
one value block, exactly as an in-process engine holding its slice does.

The pool's failure semantics are defined here too: a failing command
leaves no stale reply in any pipe, a burst mixing schemas is rejected
before any send, a dead worker (also one killed mid-burst) surfaces as a
``RuntimeError`` naming its shard, ``close()`` always reaps every worker,
and a pool never starts multiprocessing's resource tracker.  The network
backend runs in one process and rejects ``shards > 0`` up front.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.model import Publication, Schema, Subscription
from repro.model.errors import ValidationError
from repro.obs.probes import ObsProbe, enabled
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.cli import main as scenarios_main
from repro.scenarios.events import EventAction, compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.shard.coordinator import ShardCoordinator
from repro.shard.engine import ShardedMatchingEngine
from repro.shard.partition import HashPartitioner, RangePartitioner, shard_seed

SEED = 7


def _compiled(name: str, policy: str):
    spec = dataclasses.replace(get_scenario(name), policy=policy)
    return spec, compile_scenario(spec, SEED)


class TestEngineNotificationInvariance:
    """Engine mode: deterministic-policy deliveries survive partitioning.

    Test/decision counters are partition-dependent by design (each shard
    sees only its own candidates), but what gets delivered to whom must
    not change for the deterministic policies.
    """

    @pytest.mark.parametrize("scenario", ("t0-smoke", "t1-churn"))
    @pytest.mark.parametrize("policy", ("none", "pairwise"))
    def test_notifications_equal_across_shard_counts(self, scenario, policy):
        spec, compiled = _compiled(scenario, policy)

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
        assert baseline_total > 0
        for shards in (2, 4):
            stream, total = deliveries(shards)
            assert stream == baseline_stream
            assert total == baseline_total


class TestSubscriptionsTotal:
    """``engine.subscriptions_total`` and ``len`` count the subscriptions
    clients registered, at any shard count: a merging store's boxes stand
    for members it also holds, and are not counted again."""

    def test_merging_agrees_across_shard_counts(self):
        spec, compiled = _compiled("t0-smoke", "merging")

        def reported(shards: int):
            runner = ScenarioRunner(spec, seed=SEED, backend="engine", shards=shards)
            report = runner.run(compiled)
            return report.totals["subscriptions_total"], [
                phase.metrics["subscriptions_total"] for phase in report.phases
            ]

        single = reported(0)
        assert single == reported(2)
        assert single[0] == 6

    def test_len_excludes_merged_boxes(self):
        _, compiled = _compiled("t0-smoke", "merging")
        engine = MatchingEngine(policy="merging")
        for event in compiled.events:
            if event.action is EventAction.SUBSCRIBE:
                engine.subscribe(event.subscription)
        assert engine.store.members  # the store did merge
        registered = sum(
            event.action is EventAction.SUBSCRIBE for event in compiled.events
        )
        assert len(engine) == registered
        assert engine.counters.subscriptions.value == registered
        assert engine.store.total_count == registered + len(engine.store.members)


def _record_sends(monkeypatch):
    """Spy on every message the coordinator sends; returns the list."""
    sent = []
    send = ShardCoordinator._send

    def spy(self, shard, message):
        sent.append(message)
        send(self, shard, message)

    monkeypatch.setattr(ShardCoordinator, "_send", spy)
    return sent


def _objects(message):
    """Every leaf object of a (nested) pipe message."""
    if isinstance(message, (tuple, list)):
        for item in message:
            yield from _objects(item)
    else:
        yield message


class TestPoolParity:
    """The pool answers every publication as one in-process engine does."""

    @pytest.mark.parametrize(
        "policy", ("none", "pairwise", "group", "merging", "hybrid")
    )
    def test_each_worker_answers_as_an_engine_on_its_slice(
        self, policy, monkeypatch
    ):
        # a worker gets each burst as one value block, never as
        # publication objects, and must answer exactly as an in-process
        # engine with its seed and its routed subscriptions does
        spec, compiled = _compiled("t1-churn", policy)
        sent = _record_sends(monkeypatch)
        with ShardCoordinator(
            2,
            policy=policy,
            delta=spec.delta,
            max_iterations=spec.max_iterations,
            merge_budget=spec.merge_budget,
            seed=SEED,
        ) as pool:
            references = [
                MatchingEngine(
                    policy=policy,
                    checker=SubsumptionChecker(
                        delta=spec.delta,
                        max_iterations=spec.max_iterations,
                        rng=np.random.default_rng(shard_seed(SEED, shard)),
                    ),
                    merge_budget=spec.merge_budget,
                )
                for shard in range(2)
            ]
            live = [0, 0]
            burst = []

            def match_burst():
                replies = iter(pool.match(burst))
                for shard, reference in enumerate(references):
                    if live[shard]:
                        assert next(replies) == [
                            (
                                r.subscribers,
                                len(r.matched),
                                r.active_tests,
                                r.covered_tests,
                            )
                            for r in reference.match_batch(burst)
                        ]
                assert next(replies, None) is None
                burst.clear()

            for event in compiled.events:
                if event.action is EventAction.PUBLISH:
                    burst.append(event.publication)
                    continue
                if burst:
                    match_burst()
                if event.action is EventAction.SUBSCRIBE:
                    shard = pool.route_subscribe(event.subscription)
                    references[shard].subscribe(event.subscription)
                    live[shard] += 1
                else:
                    shard = pool.route_unsubscribe(event.subscription_id)
                    if shard is not None:
                        references[shard].unsubscribe(event.subscription_id)
                        live[shard] -= 1
            if burst:
                match_burst()
            assert [entry["engine"] for entry in pool.stats()] == [
                dict(reference.stats) for reference in references
            ]
        assert sum(r.stats["notifications"] for r in references) > 0
        assert not any(
            isinstance(leaf, Publication)
            for message in sent
            for leaf in _objects(message)
        )
        matches = [message for message in sent if message[0] == "match"]
        assert matches
        for _, schema, values in matches:
            assert isinstance(schema, Schema)
            assert isinstance(values, np.ndarray) and values.shape[1] == schema.m

    def test_match_agrees_with_the_engine(self):
        _, compiled = _compiled("t0-smoke", "none")
        reference = MatchingEngine(policy="none")
        publications = 0
        with ShardedMatchingEngine(shards=3, policy="none", seed=SEED) as pool:
            for event in compiled.events:
                if event.action is EventAction.SUBSCRIBE:
                    reference.subscribe(event.subscription)
                    pool.subscribe(event.subscription)
                elif event.action is EventAction.UNSUBSCRIBE:
                    reference.unsubscribe(event.subscription_id)
                    pool.unsubscribe(event.subscription_id)
                else:
                    expected = reference.match(event.publication)
                    result = pool.match(event.publication)
                    assert sorted(result.subscribers) == sorted(expected.subscribers)
                    assert result.matched_count == len(expected.matched)
                    # nothing is covered under "none": every live
                    # subscription is tested once, on its own shard
                    assert result.active_tests == expected.active_tests
                    assert result.covered_tests == expected.covered_tests == 0
                    publications += 1
            assert len(pool) == len(reference)
        assert publications > 0

    def test_match_batch_does_not_depend_on_the_chunk_size(self, monkeypatch):
        import repro.shard.engine as engine_module

        _, compiled = _compiled("t0-smoke", "none")
        with ShardedMatchingEngine(shards=2, policy="none", seed=SEED) as pool:
            for event in compiled.events:
                if event.action is EventAction.SUBSCRIBE:
                    pool.subscribe(event.subscription)
            publications = [
                event.publication
                for event in compiled.events
                if event.action is EventAction.PUBLISH
            ][:20]
            one_by_one = [pool.match(p) for p in publications]
            monkeypatch.setattr(engine_module, "_MATCH_CHUNK", 3)
            chunked = pool.match_batch(publications)
            assert [r.publication for r in chunked] == publications
            assert [
                (r.subscribers, r.matched_count, r.active_tests) for r in chunked
            ] == [
                (r.subscribers, r.matched_count, r.active_tests)
                for r in one_by_one
            ]
            assert pool.stats["publications"] == 2 * len(publications)
        assert any(r.matched_count for r in one_by_one)


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


# ----------------------------------------------------------------------
# Failure semantics and teardown
# ----------------------------------------------------------------------
class _ByPrefix:
    """Places ``a*`` subscriptions on shard 0 and the rest on shard 1."""

    def shard_of(self, subscription: Subscription) -> int:
        return 0 if subscription.id.startswith("a") else 1


SCHEMA = Schema.uniform_integer(2, 0, 100)


def _subscription(subscription_id: str, schema: Schema = SCHEMA) -> Subscription:
    return Subscription.from_constraints(
        schema,
        {"x1": (0, 50)},
        subscription_id=subscription_id,
        subscriber=f"c-{subscription_id}",
    )


PUBLICATION = Publication.from_values(SCHEMA, {"x1": 10, "x2": 10})


def _pool(**kwargs) -> ShardedMatchingEngine:
    engine = ShardedMatchingEngine(
        shards=2, policy="none", partitioner=_ByPrefix(), **kwargs
    )
    engine.subscribe(_subscription("a1"))
    engine.subscribe(_subscription("b1"))
    return engine


def _no_children_left() -> bool:
    return multiprocessing.active_children() == []


class TestWorkerErrors:
    def test_a_failed_command_leaves_no_stale_reply(self):
        coordinator = ShardCoordinator(2, partitioner=_ByPrefix())
        try:
            coordinator.route_subscribe(_subscription("a1"))
            coordinator.route_subscribe(
                _subscription("a2", Schema.uniform_integer(3, 0, 100))
            )
            coordinator.route_subscribe(_subscription("b1"))
            with pytest.raises(RuntimeError, match="shard worker 0 failed"):
                coordinator.match([PUBLICATION])
            coordinator.sync()
            stats = coordinator.stats()
            assert [type(entry) for entry in stats] == [dict, dict]
            assert [entry["shard"] for entry in stats] == [0, 1]
            assert stats[1]["subscriptions"] == 1
            (reply,) = coordinator.match([PUBLICATION])[1:]
            assert reply[0][:2] == (("c-b1",), 1)
        finally:
            coordinator.close()
        assert _no_children_left()

    def test_a_mixed_schema_burst_is_rejected_before_any_send(self, monkeypatch):
        other = Publication.from_values(
            Schema.uniform_integer(3, 0, 100), {"x1": 10, "x2": 10, "x3": 10}
        )
        # an equal schema that is another object is one schema
        twin = Publication.from_values(
            Schema.uniform_integer(2, 0, 100), {"x1": 20, "x2": 20}
        )
        with _pool() as engine:
            coordinator = engine.coordinator
            coordinator.sync()
            sent = _record_sends(monkeypatch)
            with pytest.raises(ValidationError, match="mixes"):
                coordinator.match([PUBLICATION, other])
            assert sent == []
            assert not any(conn.poll(0.2) for conn in coordinator._conns)
            replies = coordinator.match([PUBLICATION, twin])
            assert [[entry[:2] for entry in reply] for reply in replies] == [
                [(("c-a1",), 1)] * 2,
                [(("c-b1",), 1)] * 2,
            ]
            coordinator.sync()
            assert not any(conn.poll(0.2) for conn in coordinator._conns)
        assert _no_children_left()

    def test_a_burst_mixing_schemas_across_chunks_sends_nothing(self, monkeypatch):
        import repro.shard.engine as engine_module

        other = Publication.from_values(
            Schema.uniform_integer(3, 0, 100), {"x1": 10, "x2": 10, "x3": 10}
        )
        with _pool() as engine:
            coordinator = engine.coordinator
            engine.sync()
            workers, facade = engine.worker_stats(), dict(engine.stats)
            # one publication per chunk: the schemas differ only across chunks
            monkeypatch.setattr(engine_module, "_MATCH_CHUNK", 1)
            sent = _record_sends(monkeypatch)
            with pytest.raises(ValidationError, match="mixes"):
                engine.match_batch([PUBLICATION, other])
            assert sent == []
            assert not any(conn.poll(0.2) for conn in coordinator._conns)
            assert dict(engine.stats) == facade
            assert [
                {k: v for k, v in entry.items() if k != "busy_seconds"}
                for entry in engine.worker_stats()
            ] == [
                {k: v for k, v in entry.items() if k != "busy_seconds"}
                for entry in workers
            ]
        assert _no_children_left()

    def test_a_later_chunk_failing_keeps_the_completed_chunks_charged(
        self, monkeypatch
    ):
        import repro.shard.engine as engine_module

        with _pool() as engine:
            coordinator = engine.coordinator
            engine.sync()
            before = dict(engine.stats)
            monkeypatch.setattr(engine_module, "_MATCH_CHUNK", 1)
            match = coordinator.match
            chunks = []

            def second_chunk_fails(chunk):
                chunks.append(chunk)
                if len(chunks) == 2:
                    raise RuntimeError("the second chunk failed")
                return match(chunk)

            monkeypatch.setattr(coordinator, "match", second_chunk_fails)
            with pytest.raises(RuntimeError, match="the second chunk failed"):
                engine.match_batch([PUBLICATION, PUBLICATION])
            assert len(chunks) == 2
            # the first chunk was matched by both shards: one publication,
            # delivered to both subscribers
            assert engine.stats["publications"] == before["publications"] + 1
            assert engine.stats["notifications"] == before["notifications"] + 2
        assert _no_children_left()

    @pytest.mark.parametrize("dead", (0, 1))
    def test_a_worker_killed_mid_burst_is_named(self, dead, monkeypatch):
        engine = _pool()
        try:
            engine.sync()
            coordinator = engine.coordinator
            process = coordinator._processes[dead]
            # stopped, the worker cannot answer the burst before it dies
            os.kill(process.pid, signal.SIGSTOP)
            collect = ShardCoordinator._collect

            def kill_then_collect(self, reached, errors):
                process.kill()
                process.join(timeout=10)
                assert not process.is_alive()
                return collect(self, reached, errors)

            monkeypatch.setattr(ShardCoordinator, "_collect", kill_then_collect)
            with pytest.raises(RuntimeError, match=f"shard worker {dead} died"):
                engine.match(PUBLICATION)
            # the live shard's reply was read, not left for the next call
            assert not coordinator._conns[1 - dead].poll(0.2)
        finally:
            engine.close()
        assert _no_children_left()

    @pytest.mark.parametrize("dead", (0, 1))
    def test_a_dead_worker_is_named_by_every_call(self, dead):
        engine = _pool()
        try:
            engine.sync()
            process = engine.coordinator._processes[dead]
            process.kill()
            process.join(timeout=10)
            assert not process.is_alive()
            live_pipe = engine.coordinator._conns[1 - dead]
            message = f"shard worker {dead} died"
            for call in (
                lambda: engine.match(PUBLICATION),
                engine.sync,
                engine.worker_stats,
            ):
                with pytest.raises(RuntimeError, match=message):
                    call()
                # the live shard's reply was read, not left for the next call
                assert not live_pipe.poll(0.2)
        finally:
            engine.close()
        assert _no_children_left()


class _InstallerOnlyProbe(ObsProbe):
    """A probe that fails any stage timed outside the installing process."""

    def __init__(self):
        super().__init__()
        self.pid = os.getpid()

    def stage_push(self, name: str) -> None:
        assert os.getpid() == self.pid, (
            f"worker timed {name} into an inherited probe"
        )
        super().stage_push(name)


class TestWorkersAreNotObserved:
    def test_a_probe_installed_at_fork_stays_in_the_parent(self):
        probe = _InstallerOnlyProbe()
        with enabled(probe):
            engine = _pool()
            try:
                assert engine.match(PUBLICATION).matched_count
                engine.sync()
            finally:
                engine.close()
        # routing and the drain are timed too, in this process
        assert probe.stage_calls == {
            "shard.route": 2,
            "shard.dispatch": 1,
            "shard.collect": 1,
            "shard.sync": 1,
        }
        assert _no_children_left()


class TestPoolSurface:
    def test_worker_stats_carry_the_keys_the_benchmarks_read(self):
        with _pool() as engine:
            engine.match(PUBLICATION)
            stats = engine.worker_stats()
        assert [entry["shard"] for entry in stats] == [0, 1]
        for entry in stats:
            assert entry["subscriptions"] == 1
            assert entry["busy_seconds"] > 0
            assert entry["store"]["added"] == entry["store"]["forwarded"] == 1
            assert entry["arena_compactions"] >= 0
            assert entry["arena_moved_rows"] >= 0
            assert entry["engine"]["publications"] == 1
        assert _no_children_left()

    def test_empty_shards_are_not_consulted(self):
        with ShardCoordinator(2, policy="none", partitioner=_ByPrefix()) as pool:
            assert pool.match([PUBLICATION]) == []
            pool.route_subscribe(_subscription("a1"))
            pool.route_subscribe(_subscription("b1"))
            pool.route_unsubscribe("b1")
            (reply,) = pool.match([PUBLICATION, PUBLICATION])
            assert [entry[:2] for entry in reply] == [(("c-a1",), 1)] * 2
            assert [entry["engine"]["publications"] for entry in pool.stats()] == [
                2,
                0,
            ]
        assert _no_children_left()


class TestTeardown:
    def test_a_closed_pool_leaves_no_child_process(self):
        with _pool() as engine:
            result = engine.match(PUBLICATION)
            assert sorted(result.subscribers) == ["c-a1", "c-b1"]
            engine.unsubscribe("b1")
            assert [w["subscriptions"] for w in engine.worker_stats()] == [1, 0]
        assert _no_children_left()

    def test_a_pool_never_starts_the_resource_tracker(self):
        # in a fresh interpreter: another test of this session may have
        # started the tracker for reasons of its own
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.model import Publication, Schema, Subscription\n"
            "from repro.shard.engine import ShardedMatchingEngine\n"
            "schema = Schema.uniform_integer(2, 0, 100)\n"
            "with ShardedMatchingEngine(shards=2, policy='group') as engine:\n"
            "    for i in range(8):\n"
            "        engine.subscribe(Subscription.from_constraints(\n"
            "            schema, {'x1': (0, 50 + i)}, subscription_id=f's{i}',\n"
            "            subscriber=f'c{i}'))\n"
            "    engine.unsubscribe('s0')\n"
            "    p = Publication.from_values(schema, {'x1': 10, 'x2': 10})\n"
            "    assert len(engine.match(p).subscribers) == 7\n"
            "    engine.sync()\n"
            "print(resource_tracker._resource_tracker._pid)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["None"]


class TestNetworkRejectsShards:
    def test_runner_rejects_shards_on_the_network_backend(self):
        with pytest.raises(ValueError, match="engine backend"):
            ScenarioRunner(backend="network", shards=2)
        assert _no_children_left()

    def test_run_and_replay_exit_nonzero(self, capsys, tmp_path):
        trace = str(tmp_path / "t0.jsonl")
        assert scenarios_main(
            ["run", "t0-smoke", "--seed", "7", "--shards", "2", "--trace", trace]
        ) == 2
        assert "engine backend" in capsys.readouterr().err
        assert not os.path.exists(trace)
        assert scenarios_main(["run", "t0-smoke", "--seed", "7", "--trace", trace]) == 0
        capsys.readouterr()
        assert scenarios_main(["replay", trace, "--shards", "2"]) == 2
        assert "engine backend" in capsys.readouterr().err
        assert _no_children_left()
