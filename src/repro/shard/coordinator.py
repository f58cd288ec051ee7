"""Shard coordinator: worker lifecycle, routing, dispatch/collect.

The coordinator owns ``N`` worker processes (one pipe + one daemon
process each), routes subscription mutations to their owning shard in
buffered fire-and-forget batches, and fans every publication burst out
to each shard that holds at least one subscription.

A burst crosses each pipe as ``("match", schema, values)``, one schema
and one ``(B, m)`` float block (messages: :mod:`repro.shard.worker`);
one mixing schemas raises ``ValidationError`` before any send.  Pickled
``Publication`` objects cost ~50 ms and 630 KB per shard, and ~20 ms to
unpickle, for one 5 000-publication burst on a 2-core VM.

There is no candidate pre-filter: with hash partitioning every shard's
bounds hull is close to the whole space, so a per-shard hull pruned
4-98 of the 10 000 (shard, publication) dispatches of a
``cycle-sharded`` input.

Every synchronous command is two-phase: all addressed shards receive
their message first, then one reply is collected from *every* shard the
message reached — workers overlap while the coordinator waits.  Only
then is the first error (in shard order) raised, so a failing command
never leaves a stale reply in a pipe for the next command to read.  A
worker whose pipe is gone surfaces as ``RuntimeError("shard worker N
died ...")``, on send as on receive.  Observability lands in the
``shard.dispatch`` / ``shard.collect`` stage timers and per-shard
registry instruments.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.errors import ValidationError
from repro.model.publications import Publication
from repro.model.subscriptions import Subscription
from repro.obs import probes as obs_probes
from repro.obs.probes import stage
from repro.shard.partition import make_partitioner
from repro.shard.worker import worker_main

__all__ = ["ShardCoordinator"]

#: ops buffered per shard before an eager flush (synchronous commands
#: always flush first, so this only bounds memory, not staleness)
_OPS_FLUSH_THRESHOLD = 2048


class ShardCoordinator:
    """Routes one subscription space across ``shards`` worker processes.

    Each worker runs a full :class:`~repro.matching.engine.MatchingEngine`
    on the subscriptions routed to it.

    Parameters
    ----------
    shards:
        Worker count (≥ 1).
    policy, delta, max_iterations, merge_budget, seed:
        Forwarded into each worker's engine; ``seed`` feeds the
        fixed shard→seed mapping of the workers' checker streams.
    partitioner:
        ``"hash"`` (default), ``"range"``/``"range:ATTR"``, or any object
        with a ``shard_of`` method.
    """

    def __init__(
        self,
        shards: int,
        policy: str = "group",
        delta: float = 0.001,
        max_iterations: int = 1000,
        merge_budget: float = 0.1,
        seed: int = 0,
        partitioner: Any = "hash",
    ):
        if shards < 1:
            raise ValueError("a shard coordinator needs at least one worker")
        self.shards = shards
        self.partitioner = make_partitioner(partitioner, shards)
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
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
                        "policy": policy,
                        "delta": delta,
                        "max_iterations": max_iterations,
                        "merge_budget": merge_budget,
                        "seed": seed,
                    },
                ),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._pending_ops: List[List[Tuple[str, Any]]] = [[] for _ in range(shards)]
        self._live = [0] * shards
        self._busy = [0.0] * shards
        self._shard_of: Dict[str, int] = {}
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
        self._live[shard] += 1
        self._buffer(shard, ("sub", subscription))
        return shard

    def route_unsubscribe(self, subscription_id: str) -> Optional[int]:
        """Route a removal to the owning shard; ``None`` when unknown."""
        shard = self._shard_of.pop(subscription_id, None)
        if shard is None:
            return None
        self._live[shard] -= 1
        self._buffer(shard, ("unsub", subscription_id))
        return shard

    def __len__(self) -> int:
        return len(self._shard_of)

    def __contains__(self, subscription_id: object) -> bool:
        return subscription_id in self._shard_of

    def _buffer(self, shard: int, operation: Tuple[str, Any]) -> None:
        pending = self._pending_ops[shard]
        pending.append(operation)
        if len(pending) >= _OPS_FLUSH_THRESHOLD:
            self._flush(shard)

    def _flush(self, shard: int) -> None:
        pending = self._pending_ops[shard]
        if not pending:
            return
        self._send(shard, ("ops", pending))
        self._instrument("shard.ops", shard, len(pending))
        self._pending_ops[shard] = []

    # ------------------------------------------------------------------
    # Pipe traffic
    # ------------------------------------------------------------------
    def _send(self, shard: int, message: tuple) -> None:
        try:
            self._conns[shard].send(message)
        except OSError as error:
            raise RuntimeError(
                f"shard worker {shard} died (send failed)"
            ) from error

    def _receive(self, shard: int):
        try:
            status, payload, busy = self._conns[shard].recv()
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"shard worker {shard} died (pipe closed)"
            ) from error
        self._busy[shard] = busy
        if status == "err":
            raise RuntimeError(f"shard worker {shard} failed:\n{payload}")
        return payload

    def _dispatch(
        self, shards: Sequence[int], message: tuple
    ) -> Tuple[List[int], Dict[int, RuntimeError]]:
        """Flush and send ``message`` to each shard; ``(reached, failed)``."""
        reached: List[int] = []
        errors: Dict[int, RuntimeError] = {}
        for shard in shards:
            try:
                self._flush(shard)
                self._send(shard, message)
            except RuntimeError as error:
                errors[shard] = error
            else:
                reached.append(shard)
        return reached, errors

    def _collect(
        self, reached: List[int], errors: Dict[int, RuntimeError]
    ) -> Dict[int, Any]:
        """One reply from every reached shard, then the first error."""
        payloads: Dict[int, Any] = {}
        for shard in reached:
            try:
                payloads[shard] = self._receive(shard)
            except RuntimeError as error:
                errors[shard] = error
        if errors:
            raise errors[min(errors)]
        return payloads

    def _command(self, message: tuple) -> List[Any]:
        """Send ``message`` to every shard; replies in shard order."""
        shards = range(self.shards)
        payloads = self._collect(*self._dispatch(shards, message))
        return [payloads[shard] for shard in shards]

    def _instrument(self, name: str, shard: int, amount: float) -> None:
        obs = obs_probes.ACTIVE
        if obs is not None and amount:
            obs.registry.counter(name, shard=shard).inc(amount)

    # ------------------------------------------------------------------
    # Synchronous commands
    # ------------------------------------------------------------------
    def match(self, publications: Sequence[Publication]) -> List[List[Any]]:
        """Fan a burst out to every non-empty shard; collect shard-ordered.

        Returns one reply list per consulted shard, each holding that
        worker's entry for every publication in ``publications`` — the
        façade merges them into per-publication results.  Shards without
        subscriptions are skipped (they provably match nothing).  A burst
        whose publications do not share one schema raises
        :class:`ValidationError` before anything is sent.
        """
        publications = list(publications)
        if not publications:
            return []
        schema = publications[0].schema
        for publication in publications:
            if publication.schema is not schema and publication.schema != schema:
                raise ValidationError("a match burst mixes publication schemas")
        with stage("shard.dispatch"):
            message = ("match", schema, np.array([p.values for p in publications]))
            targets = [shard for shard in range(self.shards) if self._live[shard]]
            reached, errors = self._dispatch(targets, message)
            for shard in reached:
                self._instrument("shard.match_pubs", shard, len(publications))
        with stage("shard.collect"):
            payloads = self._collect(reached, errors)
        return [payloads[shard] for shard in targets]

    def sync(self) -> None:
        """Drain every pipe; surfaces any parked worker error."""
        self._command(("sync",))
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
        return self._command(("stats",))

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
