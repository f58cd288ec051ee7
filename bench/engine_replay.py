"""The benchmark's own replay of a scenario on the matching engine.

``ScenarioRunner`` discards per-publication results and never exposes the
engine it builds, so checking *what was matched* and reading the store,
arena and shard-worker statistics needs a second driver.  It replays the
events exactly as ``ScenarioRunner._run_engine`` does; the caller checks
its ``engine.stats`` totals against the runner's report for the same
events.  The brute-force oracle shares no code with the engine.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import Counter
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.obs import probes as obs_probes
from repro.obs.probes import ObsProbe
from repro.scenarios.events import CompiledScenario, EventAction, derive_streams
from repro.shard.engine import ShardedMatchingEngine
from repro.utils.rng import ensure_rng


def make_engine(compiled: CompiledScenario, shards: int):
    """The engine ``ScenarioRunner`` would build for this scenario."""
    spec = compiled.spec
    if shards:
        return ShardedMatchingEngine(
            shards=shards,
            policy=spec.policy,
            backend=spec.engine_backend,
            delta=spec.delta,
            max_iterations=spec.max_iterations,
            merge_budget=spec.merge_budget,
            seed=compiled.seed,
        )
    checker = SubsumptionChecker(
        delta=spec.delta,
        max_iterations=spec.max_iterations,
        rng=ensure_rng(derive_streams(compiled.seed)["network"]),
    )
    return MatchingEngine(
        policy=spec.policy,
        checker=checker,
        backend=spec.engine_backend,
        merge_budget=spec.merge_budget,
    )


def _replay(compiled: CompiledScenario, engine, batched: bool):
    """The runner's engine loop: ``(results, wall per phase, total wall)``."""
    results: list = []
    phase_walls: Dict[str, float] = {}
    events = compiled.events
    total = len(events)
    index = 0
    started = time.perf_counter()
    while index < total:
        phase = events[index].phase
        phase_started = time.perf_counter()
        while index < total and events[index].phase == phase:
            event = events[index]
            if event.action is EventAction.SUBSCRIBE:
                engine.subscribe(event.subscription)
                index += 1
            elif event.action is EventAction.UNSUBSCRIBE:
                engine.unsubscribe(event.subscription_id)
                index += 1
            else:
                # the shard pool takes a run of publications at once
                end = index + 1
                if batched:
                    while (
                        end < total
                        and events[end].action is EventAction.PUBLISH
                        and events[end].phase == phase
                    ):
                        end += 1
                if end - index == 1:
                    results.append(engine.match(event.publication))
                else:
                    results.extend(
                        engine.match_batch([e.publication for e in events[index:end]])
                    )
                index = end
        if batched:
            engine.sync()
        phase_walls[phase] = time.perf_counter() - phase_started
    return results, phase_walls, time.perf_counter() - started


def drive_engine(
    compiled: CompiledScenario, shards: int, probe: Optional[ObsProbe] = None
) -> Dict[str, Any]:
    """Replay ``compiled``; keep results, phase times and engine statistics.

    ``probe`` observes the replay only, not the engine's construction:
    shard workers fork without it.
    """
    engine = make_engine(compiled, shards)
    observed = (
        obs_probes.enabled(probe) if probe is not None else contextlib.nullcontext()
    )
    try:
        with observed:
            results, phase_walls, wall = _replay(compiled, engine, bool(shards))
        totals = dict(engine.stats)
        totals["subscriptions_total"] = len(engine)
        outcome: Dict[str, Any] = {
            "wall": wall,
            "phase_walls": phase_walls,
            "results": results,
            "totals": totals,
        }
        if shards:
            workers = engine.worker_stats()
            outcome["store"] = Counter()
            for worker in workers:
                outcome["store"].update(worker["store"])
            outcome["arena"] = {
                "compactions": sum(w["arena_compactions"] for w in workers),
                "moved_rows": sum(w["arena_moved_rows"] for w in workers),
            }
            outcome["busy"] = [w["busy_seconds"] for w in workers]
            outcome["shard_subscriptions"] = [w["subscriptions"] for w in workers]
        else:
            outcome["store"] = Counter(engine.store.stats)
            outcome["arena"] = {
                "compactions": engine.arena.compactions,
                "moved_rows": engine.arena.moved_rows,
            }
        return outcome
    finally:
        if shards:
            engine.close()


def suppressed_fraction(store: Dict[str, float]) -> float:
    """Suppressed share of the store's covering decisions."""
    decided = store["suppressed"] + store["forwarded"]
    return store["suppressed"] / decided if decided else 0.0


def delivery_digest(compiled: CompiledScenario, results: Sequence) -> str:
    """SHA-256 over who was notified of each publication, in event order."""
    digest = hashlib.sha256()
    publications = (
        e.publication for e in compiled.events if e.action is EventAction.PUBLISH
    )
    for publication, result in zip(publications, results):
        line = publication.id + ":" + ",".join(sorted(result.subscribers))
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def count_wrong_matches(compiled: CompiledScenario, results: Sequence) -> Tuple[int, int]:
    """``(publications, publications matched wrongly)`` against brute force.

    The oracle keeps the live subscriptions as plain bound matrices and
    tests every publication against every one of them with NumPy — no
    covering, no index.  A publication is wrong when the number of
    matched subscriptions or the set of subscribers differs.
    """
    live: Dict[str, Any] = {}
    stacked: Optional[tuple] = None
    position = 0
    wrong = 0
    for event in compiled.events:
        if event.action is EventAction.SUBSCRIBE:
            live[event.subscription.id] = event.subscription
            stacked = None
        elif event.action is EventAction.UNSUBSCRIBE:
            live.pop(event.subscription_id, None)
            stacked = None
        else:
            if stacked is None:
                subscriptions = list(live.values())
                stacked = (
                    np.array([s.lows for s in subscriptions]),
                    np.array([s.highs for s in subscriptions]),
                    [s.subscriber for s in subscriptions],
                )
            lows, highs, subscribers = stacked
            values = event.publication.values
            if subscribers:
                hit = np.nonzero(((lows <= values) & (values <= highs)).all(axis=1))[0]
            else:
                hit = ()
            result = results[position]
            position += 1
            # the sharded result carries a count, the plain one the matches
            matched = getattr(result, "matched_count", None)
            if matched is None:
                matched = len(result.matched)
            if matched != len(hit) or set(result.subscribers) != {
                subscribers[row] for row in hit
            }:
                wrong += 1
    if position != len(results):
        raise ValueError("one result per publication expected")
    return position, wrong
