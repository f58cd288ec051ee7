"""Shard worker process: one slice of the subscription space.

A worker owns every subscription its partitioner assigns to it, in one of
two modes:

``engine``
    A full :class:`~repro.matching.engine.MatchingEngine` — store,
    covering policy and probabilistic checker (seeded from the fixed
    shard→seed mapping).  This is the parallel decision pool:
    ``decide``/``check`` work happens here.
``index``
    A bare :class:`~repro.matching.matcher.Matcher` — pure membership
    matching, no covering.  This shards the broker network's
    global delivery oracle, whose semantics must stay byte-identical to
    the unsharded run (no policy, no randomness).

Either way the worker mirrors its subscriptions' bounds into a
:class:`~repro.shard.shm.SharedSubscriptionArena`, so the coordinator can
pre-filter publications against this shard's rows without any data moving
over the pipe.

The command loop is deliberately tiny — five message kinds over one
duplex pipe:

``("ops", [...])``
    Fire-and-forget subscription mutations, each ``("sub", subscription)``
    or ``("unsub", id)``.  Errors are parked and surfaced by the next
    synchronous command, so a routing burst costs no round-trips.
``("match", publications)`` → ``("ok", payload, meta)``
    Match a burst.  ``payload`` is one entry per publication:
    ``(refs, tests)`` in index mode (``refs`` = ``(id, subscriber)``
    pairs, insertion order) or ``(subscribers, n_matched, active_tests,
    covered_tests)`` in engine mode.
``("sync",)`` / ``("stats",)`` → ``("ok", ..., meta)``
    Drain the op stream (surfacing any parked error) / report counters.
``("shutdown",)`` → ``("bye", None, meta)``
    Release the shared segments and exit.

Every reply's ``meta`` carries the worker's cumulative busy seconds (the
per-shard load measure the benchmarks attribute critical paths with), the
current arena spec/row count, and the subscription count.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.matching.matcher import Matcher
from repro.shard.partition import shard_seed
from repro.shard.shm import SharedSubscriptionArena

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
        self.mode = config.get("mode", "index")
        if self.mode not in ("engine", "index"):
            raise ValueError(f"unknown shard worker mode {self.mode!r}")
        self.mirror = SharedSubscriptionArena(
            capacity=int(config.get("arena_capacity", 1024)),
            name_prefix=config.get("shm_prefix"),
        )
        self.engine: Optional[MatchingEngine] = None
        self.index = None
        if self.mode == "engine":
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
        else:
            self.index = Matcher()
        self.busy = 0.0
        self.pending_error: Optional[str] = None
        self._intern_schema = _SchemaInterner()

    # ------------------------------------------------------------------
    # Mutations (fire-and-forget)
    # ------------------------------------------------------------------
    def apply_ops(self, operations: List[Tuple[str, Any]]) -> None:
        for kind, payload in operations:
            if kind == "sub":
                payload.schema = self._intern_schema(payload.schema)
                if self.engine is not None:
                    self.engine.subscribe(payload)
                else:
                    self.index.add(payload)
                self.mirror.add(payload)
            elif kind == "unsub":
                if self.engine is not None:
                    self.engine.unsubscribe(payload)
                else:
                    self.index.remove(payload)
                self.mirror.discard(payload)
            else:
                raise ValueError(f"unknown shard op {kind!r}")

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, publications) -> List[Tuple]:
        for publication in publications:
            publication.schema = self._intern_schema(publication.schema)
        if self.engine is not None:
            return [
                (
                    result.subscribers,
                    len(result.matched),
                    result.active_tests,
                    result.covered_tests,
                )
                for result in self.engine.match_batch(publications)
            ]
        return [
            (
                [(s.id, s.subscriber) for s in matched],
                tests,
            )
            for matched, tests in self.index.match_batch(publications)
        ]

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "shard": self.shard_index,
            "mode": self.mode,
            "busy_seconds": self.busy,
            "subscriptions": len(self),
            "arena_compactions": self.mirror.compactions,
            "arena_moved_rows": self.mirror.moved_rows,
        }
        if self.engine is not None:
            payload["engine"] = dict(self.engine.stats)
            payload["store"] = dict(self.engine.store.stats)
        return payload

    def meta(self) -> Dict[str, Any]:
        return {
            "busy": self.busy,
            "arena": self.mirror.spec(),
            "rows": self.mirror.next_row,
            "count": len(self),
        }

    def __len__(self) -> int:
        if self.engine is not None:
            return len(self.engine)
        return len(self.index)

    def close(self) -> None:
        self.mirror.close()


def worker_main(conn, config: Dict[str, Any]) -> None:
    """Entry point of one shard worker process.

    Runs the command loop until ``shutdown`` or the pipe closes; every
    exception is reported to the coordinator rather than killing the
    process silently (op-stream errors are parked until the next
    synchronous command, per the fire-and-forget contract).
    """
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
                conn.send(("bye", None, worker.meta()))
                break
            try:
                if worker.pending_error is not None:
                    error, worker.pending_error = worker.pending_error, None
                    raise RuntimeError(
                        f"deferred shard op failure:\n{error}"
                    )
                if command == "match":
                    payload = worker.match(message[1])
                elif command == "sync":
                    payload = None
                elif command == "stats":
                    payload = worker.stats()
                else:
                    raise ValueError(f"unknown shard command {command!r}")
            except Exception:
                worker.busy += time.perf_counter() - started
                conn.send(("err", traceback.format_exc(), worker.meta()))
                continue
            worker.busy += time.perf_counter() - started
            conn.send(("ok", payload, worker.meta()))
    finally:
        worker.close()
        conn.close()
