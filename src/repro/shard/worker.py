"""Shard worker process: one slice of the subscription space.

A worker owns every subscription its partitioner assigns to it in a
full :class:`~repro.matching.engine.MatchingEngine` — store, covering
policy and probabilistic checker (seeded from the fixed shard→seed
mapping).  This is the parallel decision pool: ``decide``/``check`` work
happens here.

The command loop is deliberately tiny — five message kinds over one
duplex pipe:

``("ops", [...])``
    Fire-and-forget subscription mutations, each ``("sub", subscription)``
    or ``("unsub", id)``.  Errors are parked and surfaced by the next
    synchronous command, so a routing burst costs no round-trips.
``("match", schema, values)`` → ``("ok", payload, busy)``
    Match a burst: its one schema, checked against the pools, and its
    ``(B, m)`` value block.  ``payload`` is one ``(subscribers,
    n_matched, active_tests, covered_tests)`` entry per row.
``("sync",)`` / ``("stats",)`` → ``("ok", ..., busy)``
    Drain the op stream (surfacing any parked error) / report counters.
``("shutdown",)`` → ``("bye", None, busy)``
    Exit.

Every reply carries the worker's cumulative busy seconds, the per-shard
load measure the benchmarks attribute critical paths with.

Workers are never observed: a probe installed when the pool forks would
time the worker's engine into a copy no one reads, so the worker
uninstalls it before its loop.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.obs import probes as obs_probes
from repro.shard.partition import shard_seed

__all__ = ["worker_main"]


class _SchemaInterner:
    """Map unpickled :class:`Schema` copies to one canonical instance.

    Every pipe message unpickles a fresh ``Schema`` object graph (pickle
    memoises within a message, not across them), so the engine's
    identity-first schema checks — one ``is`` per candidate in a
    single-process run — degrade into deep per-attribute dataclass
    comparisons against every stored subscription.  At scale that
    comparison dominated worker CPU.  Interning restores the
    one-object-per-schema invariant for one hash lookup per message
    object; the last raw/canonical pair is kept as an identity fast
    path because all objects of one unpickled batch share a single raw
    ``Schema`` (strong refs, so ``is`` cannot alias a recycled id).
    """

    __slots__ = ("_canonical", "_last_raw", "_last_canonical")

    def __init__(self):
        self._canonical: Dict[Any, Any] = {}
        self._last_raw = None
        self._last_canonical = None

    def __call__(self, schema):
        if schema is self._last_raw or schema is self._last_canonical:
            return self._last_canonical
        canonical = self._canonical.setdefault(schema, schema)
        self._last_raw = schema
        self._last_canonical = canonical
        return canonical


class _ShardWorker:
    """State behind the command loop (kept separate for direct testing)."""

    def __init__(self, config: Dict[str, Any]):
        self.shard_index = int(config["shard_index"])
        checker = SubsumptionChecker(
            delta=config.get("delta", 0.001),
            max_iterations=config.get("max_iterations", 1000),
            rng=np.random.default_rng(
                shard_seed(config.get("seed", 0), self.shard_index)
            ),
        )
        self.engine = MatchingEngine(
            policy=config.get("policy", "group"),
            checker=checker,
            merge_budget=config.get("merge_budget", 0.1),
        )
        self.busy = 0.0
        self.pending_error: Optional[str] = None
        self._intern_schema = _SchemaInterner()

    def apply_ops(self, operations: List[Tuple[str, Any]]) -> None:
        for kind, payload in operations:
            if kind == "sub":
                payload.schema = self._intern_schema(payload.schema)
                self.engine.subscribe(payload)
            elif kind == "unsub":
                self.engine.unsubscribe(payload)
            else:
                raise ValueError(f"unknown shard op {kind!r}")

    def match(self, schema, values: np.ndarray) -> List[Tuple]:
        engine = self.engine
        engine.store.active_pool.check_schema(self._intern_schema(schema))
        return [
            (
                result.subscribers,
                len(result.matched),
                result.active_tests,
                result.covered_tests,
            )
            for result in engine._match_rows(values, [None] * len(values))
        ]

    def stats(self) -> Dict[str, Any]:
        arena = self.engine.arena
        return {
            "shard": self.shard_index,
            "busy_seconds": self.busy,
            "subscriptions": len(self.engine),
            "arena_compactions": arena.compactions,
            "arena_moved_rows": arena.moved_rows,
            "engine": dict(self.engine.stats),
            "store": dict(self.engine.store.stats),
        }


def worker_main(conn, config: Dict[str, Any]) -> None:
    """Entry point of one shard worker process.

    Runs the command loop until ``shutdown`` or the pipe closes; every
    exception is reported to the coordinator rather than killing the
    process silently (op-stream errors are parked until the next
    synchronous command, per the fire-and-forget contract).
    """
    obs_probes.disable()
    worker = _ShardWorker(config)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            command = message[0]
            started = time.perf_counter()
            if command == "ops":
                try:
                    worker.apply_ops(message[1])
                except Exception:
                    if worker.pending_error is None:
                        worker.pending_error = traceback.format_exc()
                worker.busy += time.perf_counter() - started
                continue
            if command == "shutdown":
                worker.busy += time.perf_counter() - started
                conn.send(("bye", None, worker.busy))
                break
            try:
                if worker.pending_error is not None:
                    error, worker.pending_error = worker.pending_error, None
                    raise RuntimeError(
                        f"deferred shard op failure:\n{error}"
                    )
                if command == "match":
                    payload = worker.match(*message[1:])
                elif command == "sync":
                    payload = None
                elif command == "stats":
                    payload = worker.stats()
                else:
                    raise ValueError(f"unknown shard command {command!r}")
            except Exception:
                worker.busy += time.perf_counter() - started
                conn.send(("err", traceback.format_exc(), worker.busy))
                continue
            worker.busy += time.perf_counter() - started
            conn.send(("ok", payload, worker.busy))
    finally:
        conn.close()
