"""Subscription-space partitioners and the fixed shard→seed mapping.

A partitioner answers one question — which shard owns a subscription —
and must answer it identically in every process and every run, because
routing *is* part of the deterministic story: the same scenario at the
same worker count must send every subscription to the same shard.

``hash`` (default)
    Stable CRC-32 of the subscriber identifier (falling back to the
    subscription id for ownerless subscriptions, e.g. synthetic merged
    boxes).  Keying on the *subscriber* keeps all of one client's
    subscriptions co-located, which keeps per-client unsubscribe storms
    on a single shard.
``range`` / ``range:ATTR``
    Equal-width buckets over one attribute's domain (the subscription's
    interval midpoint decides).  Keeps spatially clustered subscriptions,
    and with them their covering candidates, on one shard.

The shard→seed mapping feeds each worker's probabilistic checker its own
:class:`numpy.random.SeedSequence`, derived from the scenario seed and
the shard index only — never from process ids or timing — so per-shard
RSPC streams replay byte-exactly at any worker count.
"""

from __future__ import annotations

import zlib
from typing import Optional, Tuple

import numpy as np

from repro.model.subscriptions import Subscription

__all__ = [
    "HashPartitioner",
    "RangePartitioner",
    "PARTITIONER_NAMES",
    "make_partitioner",
    "shard_seed",
]

#: spec prefixes accepted by :func:`make_partitioner`
PARTITIONER_NAMES = ("hash", "range")

#: domain-separation constant of the shard seed stream — keeps worker
#: checker streams disjoint from every other stream derived from the
#: scenario seed (``derive_streams`` uses spawn keys, brokers use
#: ``spawn_rngs``)
_SHARD_SEED_SALT = 0x5AD


def shard_seed(seed: int, shard_index: int) -> np.random.SeedSequence:
    """The fixed, process-independent seed of one shard's random stream."""
    return np.random.SeedSequence([_SHARD_SEED_SALT, int(seed), int(shard_index)])


class HashPartitioner:
    """Stable hash of the subscriber (or subscription) identifier."""

    name = "hash"

    def __init__(self, shards: int):
        if shards < 1:
            raise ValueError("a partitioner needs at least one shard")
        self.shards = shards

    def shard_of(self, subscription: Subscription) -> int:
        key = subscription.subscriber or subscription.id
        return zlib.crc32(key.encode("utf-8")) % self.shards

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"HashPartitioner(shards={self.shards})"


class RangePartitioner:
    """Equal-width buckets over one attribute's domain.

    The bucket of a subscription is decided by the midpoint of its
    interval on ``attribute``.  Domain bounds default to the first
    subscription's schema (every later subscription is clipped into
    range, so mixed or out-of-domain inputs degrade to the edge buckets
    instead of erroring).
    """

    name = "range"

    def __init__(
        self,
        shards: int,
        attribute: int = 0,
        bounds: Optional[Tuple[float, float]] = None,
    ):
        if shards < 1:
            raise ValueError("a partitioner needs at least one shard")
        if attribute < 0:
            raise ValueError("attribute index must be non-negative")
        self.shards = shards
        self.attribute = attribute
        self._bounds = bounds

    def shard_of(self, subscription: Subscription) -> int:
        if self.attribute >= subscription.m:
            return 0
        if self._bounds is None:
            lows, highs = subscription.schema.full_bounds()
            self._bounds = (
                float(lows[self.attribute]),
                float(highs[self.attribute]),
            )
        low, high = self._bounds
        span = high - low
        if span <= 0:
            return 0
        midpoint = (
            float(subscription.lows[self.attribute])
            + float(subscription.highs[self.attribute])
        ) / 2.0
        bucket = int((midpoint - low) / span * self.shards)
        return min(self.shards - 1, max(0, bucket))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RangePartitioner(shards={self.shards}, "
            f"attribute={self.attribute})"
        )


def make_partitioner(spec: str, shards: int):
    """Instantiate a partitioner from its spec string.

    ``"hash"`` or ``"range"``/``"range:ATTR"`` (``ATTR`` an attribute
    index).  An already constructed partitioner-like object (anything
    with a ``shard_of`` method) passes through unchanged, so custom
    partitioners can be injected directly.
    """
    if hasattr(spec, "shard_of"):
        return spec
    name, _, argument = str(spec).partition(":")
    if name == "hash":
        return HashPartitioner(shards)
    if name == "range":
        attribute = int(argument) if argument else 0
        return RangePartitioner(shards, attribute=attribute)
    raise ValueError(
        f"unknown partitioner {spec!r}; expected one of {PARTITIONER_NAMES}"
    )
