"""Multi-process sharded execution of the decision pool.

The package layers a coordinator/worker deployment *under* the
:class:`~repro.matching.engine.MatchingEngine` surface, so sharding is a
deployment choice (``shards=N`` on the engine backend) with one code
path, invisible to scenario specs, trace hashes and golden metrics
(``shards=0`` runs today's in-process path byte for byte).

* :mod:`repro.shard.partition` — who owns a subscription:
  hash-of-subscriber (default) or attribute-range partitioners, plus the
  fixed shard→seed mapping.
* :mod:`repro.shard.worker` — the worker process: a full matching
  engine behind a pipe command loop, with busy-time accounting.
* :mod:`repro.shard.coordinator` — process lifecycle, routing,
  dispatch/collect to every shard holding subscriptions, and the obs
  spans/instruments.
* :mod:`repro.shard.engine` — the façade,
  :class:`~repro.shard.engine.ShardedMatchingEngine` (drop-in for the
  scenario runner's engine backend).
"""

from repro.shard.coordinator import ShardCoordinator
from repro.shard.engine import ShardedMatchingEngine
from repro.shard.partition import (
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
    shard_seed,
)

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "ShardCoordinator",
    "ShardedMatchingEngine",
    "make_partitioner",
    "shard_seed",
]
