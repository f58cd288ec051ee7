"""Shard coordinator: worker lifecycle, routing, pre-filter, dispatch.

The coordinator owns ``N`` worker processes (one pipe + one daemon
process each), routes subscription mutations to their owning shard in
buffered fire-and-forget batches, and fans publication bursts out to the
shards that can possibly match them.

Candidate pre-filtering (``prefilter=``) decides which shards see which
publications:

``none``
    Every shard with at least one subscription sees every publication.
``hull`` (default)
    Per-shard running bounds hull, maintained at route time: a shard is
    consulted only when the publication's point lies inside the
    axis-aligned hull of everything ever routed to it.  The hull never
    shrinks, so it is always a sound superset — including for merging
    policies, whose merged boxes are bounding boxes of routed members.
``rows``
    The zero-copy screen: the publication's point is tested against the
    shard's actual subscription rows, read directly out of the worker's
    shared-memory arena — no rows cross the pipe.  Reads are concurrent
    with worker mutation, which is safe because stale rows only ever
    produce false positives; the two genuinely racy windows are covered
    explicitly (adds routed since the last ``sync`` are screened against
    a pending-adds hull; a shard with unsubscriptions in flight falls
    back to its hull for the batch, because compaction may move rows
    mid-read).

Dispatch is two-phase: all selected shards receive their slice first,
then replies are collected in shard order — workers overlap while the
coordinator waits.  Observability lands in the ``shard.dispatch`` /
``shard.collect`` stage timers and per-shard registry instruments.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.publications import Publication
from repro.model.subscriptions import Subscription
from repro.obs import probes as obs_probes
from repro.shard.partition import make_partitioner
from repro.shard.shm import ShardArenaView
from repro.shard.worker import worker_main

__all__ = ["PREFILTER_NAMES", "ShardCoordinator"]

#: accepted ``prefilter=`` values
PREFILTER_NAMES = ("none", "hull", "rows")

#: ops buffered per shard before an eager flush (synchronous commands
#: always flush first, so this only bounds memory, not staleness)
_OPS_FLUSH_THRESHOLD = 2048

#: publications screened per vectorised ``rows`` pre-filter slab (bounds
#: the ``(chunk, rows, m)`` broadcast temporary)
_ROWS_SCREEN_CHUNK = 256

#: distinguishes the shared-memory namespaces of coordinators living in
#: one process (tests routinely run several)
_coordinator_ids = itertools.count(1)


class _ShardHull:
    """Running axis-aligned hull of everything routed to one shard."""

    __slots__ = ("low", "high")

    def __init__(self) -> None:
        self.low: Optional[np.ndarray] = None
        self.high: Optional[np.ndarray] = None

    def cover(self, subscription: Subscription) -> None:
        if self.low is None:
            self.low = np.array(subscription.lows, dtype=float)
            self.high = np.array(subscription.highs, dtype=float)
        elif self.low.shape == subscription.lows.shape:
            np.minimum(self.low, subscription.lows, out=self.low)
            np.maximum(self.high, subscription.highs, out=self.high)
        else:  # mixed arity: widen to "everything" (disables pruning)
            self.low = None
            self.high = None
            self.cover(subscription)
            self.low.fill(-np.inf)
            self.high.fill(np.inf)

    def admits(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask over a ``(B, m)`` point stack: inside the hull?"""
        if self.low is None:
            return np.zeros(len(values), dtype=bool)
        if values.shape[1:] != self.low.shape:
            return np.ones(len(values), dtype=bool)
        return ((self.low <= values) & (values <= self.high)).all(axis=1)


class ShardCoordinator:
    """Routes one subscription space across ``shards`` worker processes.

    Parameters
    ----------
    shards:
        Worker count (≥ 1).
    mode:
        ``"index"`` (a bare :class:`~repro.matching.matcher.Matcher` — the
        delivery-oracle shape) or ``"engine"`` (full matching engine — the
        decision pool).
    policy, delta, max_iterations, merge_budget, seed:
        Forwarded into each worker's engine; ``seed`` feeds the
        fixed shard→seed mapping of the workers' checker streams.
    partitioner:
        ``"hash"`` (default), ``"range"``/``"range:ATTR"``, or any object
        with a ``shard_of`` method.
    prefilter:
        One of :data:`PREFILTER_NAMES`; see the module docstring.
    """

    def __init__(
        self,
        shards: int,
        mode: str = "index",
        policy: str = "group",
        delta: float = 0.001,
        max_iterations: int = 1000,
        merge_budget: float = 0.1,
        seed: int = 0,
        partitioner: Any = "hash",
        prefilter: str = "hull",
    ):
        if shards < 1:
            raise ValueError("a shard coordinator needs at least one worker")
        if prefilter not in PREFILTER_NAMES:
            raise ValueError(
                f"unknown prefilter {prefilter!r}; expected one of {PREFILTER_NAMES}"
            )
        self.shards = shards
        self.mode = mode
        self.prefilter = prefilter
        self.partitioner = make_partitioner(partitioner, shards)
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        # Start the resource tracker *before* forking, so every worker
        # inherits this process's tracker instead of lazily spawning its
        # own on first shared-memory registration.  With one shared
        # tracker, the worker's create-registration and the
        # coordinator's attach-registration collapse into a single cache
        # entry that the worker's unlink retires cleanly.
        resource_tracker.ensure_running()
        namespace = f"rs{os.getpid():x}c{next(_coordinator_ids)}"
        self._conns = []
        self._processes = []
        for index in range(shards):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main,
                args=(
                    child_conn,
                    {
                        "shard_index": index,
                        "mode": mode,
                        "policy": policy,
                        "delta": delta,
                        "max_iterations": max_iterations,
                        "merge_budget": merge_budget,
                        "seed": seed,
                        "shm_prefix": f"{namespace}s{index}",
                    },
                ),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._views = [ShardArenaView() for _ in range(shards)]
        self._pending_ops: List[List[Tuple[str, Any]]] = [[] for _ in range(shards)]
        self._hulls = [_ShardHull() for _ in range(shards)]
        self._pending_hulls = [_ShardHull() for _ in range(shards)]
        self._unsubs_in_flight = [0] * shards
        self._synced_rows = [0] * shards
        self._live = [0] * shards
        self._busy = [0.0] * shards
        self._shard_of: Dict[str, int] = {}
        self._seq_of: Dict[str, int] = {}
        self._sequence = itertools.count()
        self._closed = False

    # ------------------------------------------------------------------
    # Routing (fire-and-forget, buffered)
    # ------------------------------------------------------------------
    def route_subscribe(self, subscription: Subscription) -> int:
        """Assign a subscription to its shard; returns the shard index."""
        if subscription.id in self._shard_of:
            raise ValueError(
                f"subscription {subscription.id!r} is already routed"
            )
        shard = self.partitioner.shard_of(subscription)
        self._shard_of[subscription.id] = shard
        self._seq_of[subscription.id] = next(self._sequence)
        self._hulls[shard].cover(subscription)
        self._pending_hulls[shard].cover(subscription)
        self._live[shard] += 1
        self._buffer(shard, ("sub", subscription))
        return shard

    def route_unsubscribe(self, subscription_id: str) -> Optional[int]:
        """Route a removal to the owning shard; ``None`` when unknown."""
        shard = self._shard_of.pop(subscription_id, None)
        if shard is None:
            return None
        self._seq_of.pop(subscription_id, None)
        self._live[shard] -= 1
        self._unsubs_in_flight[shard] += 1
        self._buffer(shard, ("unsub", subscription_id))
        return shard

    def sequence_of(self, subscription_id: str) -> int:
        """Global arrival rank of a routed subscription (merge order)."""
        return self._seq_of[subscription_id]

    def __len__(self) -> int:
        return len(self._shard_of)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._shard_of

    @property
    def live_counts(self) -> Tuple[int, ...]:
        """Routed-subscription count per shard."""
        return tuple(self._live)

    @property
    def busy_seconds(self) -> Tuple[float, ...]:
        """Cumulative worker busy time per shard (as of the last reply)."""
        return tuple(self._busy)

    def _buffer(self, shard: int, operation: Tuple[str, Any]) -> None:
        pending = self._pending_ops[shard]
        pending.append(operation)
        if len(pending) >= _OPS_FLUSH_THRESHOLD:
            self._flush(shard)

    def _flush(self, shard: int) -> None:
        pending = self._pending_ops[shard]
        if not pending:
            return
        self._conns[shard].send(("ops", pending))
        self._instrument("shard.ops", shard, len(pending))
        self._pending_ops[shard] = []

    def flush_all(self) -> None:
        """Push every buffered op down its pipe (does not wait)."""
        for shard in range(self.shards):
            self._flush(shard)

    # ------------------------------------------------------------------
    # Candidate pre-filter
    # ------------------------------------------------------------------
    def _stack_values(
        self, publications: Sequence[Publication]
    ) -> Optional[np.ndarray]:
        arity = {publication.values.shape for publication in publications}
        if len(arity) != 1:
            return None
        return np.array([publication.values for publication in publications])

    def _select(
        self, publications: Sequence[Publication]
    ) -> List[List[int]]:
        """Per shard, the positions of the publications it must see."""
        everything = [
            list(range(len(publications))) if self._live[shard] else []
            for shard in range(self.shards)
        ]
        if self.prefilter == "none":
            return everything
        values = self._stack_values(publications)
        if values is None:
            return everything
        selected: List[List[int]] = []
        for shard in range(self.shards):
            if not self._live[shard]:
                selected.append([])
                continue
            if self.prefilter == "rows":
                mask = self._rows_mask(shard, values)
            else:
                mask = self._hulls[shard].admits(values)
            selected.append(list(np.nonzero(mask)[0]))
        return selected

    def _rows_mask(self, shard: int, values: np.ndarray) -> np.ndarray:
        """Row-level screen of one shard (falls back to the hull).

        Sound under concurrent worker mutation: rows confirmed synced are
        immutable except via compaction, which only runs on removal — a
        shard with removals in flight since its last sync uses its hull
        instead.  Adds since the last sync are admitted through the
        pending-adds hull.
        """
        if self._unsubs_in_flight[shard]:
            return self._hulls[shard].admits(values)
        view = self._views[shard]
        rows = self._synced_rows[shard]
        if view.lows is None or rows == 0:
            return self._pending_hulls[shard].admits(values)
        lows = view.lows[:rows]
        highs = view.highs[:rows]
        if values.shape[1] != lows.shape[1]:
            return np.ones(len(values), dtype=bool)
        mask = np.zeros(len(values), dtype=bool)
        for start in range(0, len(values), _ROWS_SCREEN_CHUNK):
            chunk = values[start : start + _ROWS_SCREEN_CHUNK]
            points = chunk[:, np.newaxis, :]
            mask[start : start + len(chunk)] = (
                ((lows <= points) & (points <= highs)).all(axis=2).any(axis=1)
            )
        return mask | self._pending_hulls[shard].admits(values)

    # ------------------------------------------------------------------
    # Synchronous commands
    # ------------------------------------------------------------------
    def _receive(self, shard: int):
        try:
            status, payload, meta = self._conns[shard].recv()
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"shard worker {shard} died (pipe closed)"
            ) from error
        self._busy[shard] = meta["busy"]
        self._views[shard].refresh(meta["arena"])
        if status == "err":
            raise RuntimeError(f"shard worker {shard} failed:\n{payload}")
        return payload, meta

    def _instrument(self, name: str, shard: int, amount: float) -> None:
        obs = obs_probes.ACTIVE
        if obs is not None and amount:
            obs.registry.counter(name, shard=shard).inc(amount)

    def match(
        self, publications: Sequence[Publication]
    ) -> List[Dict[int, Any]]:
        """Fan a burst out to the owning shards; collect shard-ordered.

        Returns, per shard, a mapping from publication position (in
        ``publications``) to that worker's reply entry for it — the
        façades merge these into per-publication results.  Positions
        pruned by the pre-filter are simply absent (provably no match).
        """
        publications = list(publications)
        if not publications:
            return [{} for _ in range(self.shards)]
        obs = obs_probes.ACTIVE
        if obs is not None:
            obs.stage_push("shard.dispatch")
        try:
            selected = self._select(publications)
            for shard, positions in enumerate(selected):
                self._flush(shard)
                if positions:
                    self._conns[shard].send(
                        ("match", [publications[i] for i in positions])
                    )
                    self._instrument("shard.match_pubs", shard, len(positions))
                self._instrument(
                    "shard.pruned_pubs",
                    shard,
                    len(publications) - len(positions),
                )
        finally:
            if obs is not None:
                obs.stage_pop()
        if obs is not None:
            obs.stage_push("shard.collect")
        try:
            collected: List[Dict[int, Any]] = []
            for shard, positions in enumerate(selected):
                if not positions:
                    collected.append({})
                    continue
                payload, _meta = self._receive(shard)
                collected.append(dict(zip(positions, payload)))
        finally:
            if obs is not None:
                obs.stage_pop()
        return collected

    def sync(self) -> None:
        """Drain every pipe; surfaces any parked worker error.

        Also the point where the ``rows`` pre-filter's view of the world
        is re-anchored: arena views refresh, synced row counts advance,
        and the pending-adds hulls / in-flight removal counters reset.
        """
        self.flush_all()
        for shard in range(self.shards):
            self._conns[shard].send(("sync",))
        for shard in range(self.shards):
            _payload, meta = self._receive(shard)
            self._synced_rows[shard] = meta["rows"]
            self._pending_hulls[shard] = _ShardHull()
            self._unsubs_in_flight[shard] = 0
        obs = obs_probes.ACTIVE
        if obs is not None:
            for shard in range(self.shards):
                obs.registry.gauge("shard.busy_seconds", shard=shard).set(
                    self._busy[shard]
                )
                obs.registry.gauge("shard.subscriptions", shard=shard).set(
                    self._live[shard]
                )

    def stats(self) -> List[Dict[str, Any]]:
        """Per-worker statistics dictionaries, in shard order."""
        self.flush_all()
        for shard in range(self.shards):
            self._conns[shard].send(("stats",))
        return [self._receive(shard)[0] for shard in range(self.shards)]

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down (idempotent; never raises)."""
        if self._closed:
            return
        self._closed = True
        for shard in range(self.shards):
            try:
                self._conns[shard].send(("shutdown",))
            except (OSError, ValueError):
                pass
        for shard in range(self.shards):
            try:
                if self._conns[shard].poll(5.0):
                    self._conns[shard].recv()
            except (EOFError, OSError):
                pass
        for view in self._views:
            view.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass
