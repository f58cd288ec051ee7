"""Multi-process sharded execution of the subscription space.

The package layers a coordinator/worker deployment *under* the existing
seams — the :class:`~repro.matching.matcher.Matcher` surface for the
broker network's global delivery oracle, the
:class:`~repro.matching.engine.MatchingEngine` surface for the decision
pool — so sharding is an execution-mode choice (``shards=N``), invisible
to scenario specs, trace hashes and golden metrics (``shards=0`` runs
today's in-process path byte for byte).

* :mod:`repro.shard.partition` — who owns a subscription:
  hash-of-subscriber (default) or attribute-range partitioners, plus the
  fixed shard→seed mapping.
* :mod:`repro.shard.shm` — each worker's
  :class:`~repro.core.arena.SubscriptionArena` with its contiguous
  float64 bounds arrays placed in ``multiprocessing.shared_memory``, and
  the coordinator-side zero-copy views over them.
* :mod:`repro.shard.worker` — the worker process: a full matching
  engine (decision pool) or a bare matcher (delivery oracle)
  behind a pipe command loop, with busy-time accounting.
* :mod:`repro.shard.coordinator` — process lifecycle, routing, the
  candidate pre-filter (per-shard bounds hulls, optionally a vectorised
  row screen over the shared-memory arrays), dispatch/collect with
  merge-ordered results, and the obs spans/instruments.
* :mod:`repro.shard.engine` — the two façades:
  :class:`~repro.shard.engine.ShardedMatchingEngine` (drop-in for the
  scenario runner's engine backend) and
  :class:`~repro.shard.engine.ShardedOracleBackend` (the matcher
  surface for the broker network's oracle).
"""

from repro.shard.coordinator import ShardCoordinator
from repro.shard.engine import ShardedMatchingEngine, ShardedOracleBackend
from repro.shard.partition import (
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
    shard_seed,
)
from repro.shard.shm import SharedSubscriptionArena

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "ShardCoordinator",
    "ShardedMatchingEngine",
    "ShardedOracleBackend",
    "SharedSubscriptionArena",
    "make_partitioner",
    "shard_seed",
]
