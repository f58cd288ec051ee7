"""Low-level random generators for subscriptions and publications.

These helpers produce the geometric building blocks that the scenario
generators (:mod:`repro.workloads.scenarios`) compose: random boxes with a
controlled width, boxes intersecting a reference box, publications inside
or outside a box, and slab partitions of a box along one attribute.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model.intervals import Interval
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng

__all__ = [
    "random_interval",
    "random_subscription",
    "random_subscription_intersecting",
    "random_publication",
    "publication_inside",
    "slab_partition",
    "expand_to_cover",
    "shrink_inside",
]


def _snap(domain, low: float, high: float) -> Tuple[float, float]:
    """Clip and (for discrete domains) round an interval to the domain."""
    low = max(low, domain.lower_bound)
    high = min(high, domain.upper_bound)
    if domain.is_discrete:
        low = math.floor(low)
        high = math.ceil(high)
        low = max(low, domain.lower_bound)
        high = min(high, domain.upper_bound)
    if low > high:
        low = high
    return float(low), float(high)


def random_interval(
    domain,
    rng: np.random.Generator,
    width_fraction: Tuple[float, float] = (0.05, 0.3),
) -> Interval:
    """A random interval covering a fraction of ``domain``'s extent."""
    extent = domain.upper_bound - domain.lower_bound
    fraction = float(rng.uniform(width_fraction[0], width_fraction[1]))
    width = max(extent * fraction, 0.0)
    start = float(rng.uniform(domain.lower_bound, max(domain.upper_bound - width,
                                                      domain.lower_bound)))
    low, high = _snap(domain, start, start + width)
    return Interval(low, high)


def random_subscription(
    schema: Schema,
    rng: RandomSource = None,
    width_fraction: Tuple[float, float] = (0.05, 0.3),
    subscriber: Optional[str] = None,
) -> Subscription:
    """A random box subscription with per-attribute width in a fraction band."""
    generator = ensure_rng(rng)
    lows = np.empty(schema.m, dtype=float)
    highs = np.empty(schema.m, dtype=float)
    for j, attribute in enumerate(schema.attributes):
        interval = random_interval(attribute.domain, generator, width_fraction)
        lows[j] = interval.low
        highs[j] = interval.high
    return Subscription(schema, lows, highs, subscriber=subscriber)


def random_subscription_intersecting(
    reference: Subscription,
    rng: RandomSource = None,
    width_fraction: Tuple[float, float] = (0.05, 0.3),
    cover_probability: float = 0.0,
) -> Subscription:
    """A random subscription guaranteed to intersect ``reference``.

    Each attribute interval is centred at a random point of the reference's
    interval so the two boxes always share at least that point.  With
    probability ``cover_probability`` an attribute fully covers the
    reference's range on that attribute (useful to build "hard" instances
    where candidates overlap ``s`` on many attributes).
    """
    generator = ensure_rng(rng)
    schema = reference.schema
    lows = np.empty(schema.m, dtype=float)
    highs = np.empty(schema.m, dtype=float)
    for j, attribute in enumerate(schema.attributes):
        domain = attribute.domain
        ref = reference.interval(j)
        if cover_probability > 0 and generator.random() < cover_probability:
            margin = max((domain.upper_bound - domain.lower_bound) * 0.01, 1.0)
            low, high = _snap(domain, ref.low - margin, ref.high + margin)
        else:
            anchor = float(generator.uniform(ref.low, ref.high))
            extent = domain.upper_bound - domain.lower_bound
            fraction = float(
                generator.uniform(width_fraction[0], width_fraction[1])
            )
            width = extent * fraction
            offset = float(generator.uniform(0.0, width)) if width > 0 else 0.0
            low, high = _snap(domain, anchor - offset, anchor - offset + width)
        lows[j] = low
        highs[j] = high
    return Subscription(schema, lows, highs)


def random_publication(
    schema: Schema,
    rng: RandomSource = None,
    publisher: Optional[str] = None,
) -> Publication:
    """A uniformly random publication over the whole attribute space."""
    return publication_inside(Subscription.whole_space(schema), rng, publisher)


def publication_inside(
    subscription: Subscription,
    rng: RandomSource = None,
    publisher: Optional[str] = None,
) -> Publication:
    """A uniformly random publication matching ``subscription``."""
    generator = ensure_rng(rng)
    return Publication(
        subscription.schema,
        subscription.sample_point(generator),
        publisher=publisher,
    )


def slab_partition(
    subscription: Subscription,
    count: int,
    attribute: int = 0,
) -> List[Subscription]:
    """Partition a box into ``count`` slabs along one attribute.

    The slabs jointly cover the box exactly (no overlap beyond shared
    boundaries on continuous domains, disjoint consecutive integers on
    discrete ones) — the basic construction for group-covering instances
    where no single slab covers the whole box.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    schema = subscription.schema
    domain = schema.domain(attribute)
    interval = subscription.interval(attribute)
    slabs: List[Subscription] = []

    def _make_slab(low: float, high: float) -> None:
        lows = subscription.lows.copy()
        highs = subscription.highs.copy()
        lows[attribute] = low
        highs[attribute] = high
        slabs.append(Subscription(schema, lows, highs))

    if domain.is_discrete:
        total_points = int(interval.high - interval.low) + 1
        pieces = min(count, total_points)
        base, extra = divmod(total_points, pieces)
        low = interval.low
        for index in range(pieces):
            size = base + (1 if index < extra else 0)
            high = low + size - 1
            _make_slab(low, high)
            low = high + 1
    else:
        span = interval.high - interval.low
        edges = [interval.low + span * index / count for index in range(count + 1)]
        edges[-1] = interval.high
        for index in range(count):
            _make_slab(edges[index], edges[index + 1])
    return slabs


def expand_to_cover(
    subscription: Subscription,
    margin_fraction: float = 0.05,
) -> Subscription:
    """A box slightly larger than ``subscription`` on every attribute."""
    schema = subscription.schema
    lows = subscription.lows.copy()
    highs = subscription.highs.copy()
    for j, attribute in enumerate(schema.attributes):
        domain = attribute.domain
        extent = domain.upper_bound - domain.lower_bound
        margin = max(extent * margin_fraction, 1.0 if domain.is_discrete else 0.0)
        lows[j] = max(domain.lower_bound, lows[j] - margin)
        highs[j] = min(domain.upper_bound, highs[j] + margin)
    return Subscription(schema, lows, highs)


def shrink_inside(
    subscription: Subscription,
    rng: RandomSource = None,
    shrink_fraction: Tuple[float, float] = (0.1, 0.5),
) -> Subscription:
    """A random box strictly inside ``subscription``.

    At least one attribute is strictly narrower, so the result never equals
    the input; it is always pair-wise covered by it.
    """
    generator = ensure_rng(rng)
    schema = subscription.schema
    lows = subscription.lows.copy()
    highs = subscription.highs.copy()
    shrunk_any = False
    for j, attribute in enumerate(schema.attributes):
        domain = attribute.domain
        interval = subscription.interval(j)
        span = interval.high - interval.low
        if span <= (1.0 if domain.is_discrete else 1e-9):
            continue
        fraction = float(generator.uniform(*shrink_fraction))
        shrink = span * fraction
        low = interval.low + float(generator.uniform(0.0, shrink))
        high = interval.high - (shrink - (low - interval.low))
        low, high = _snap(domain, low, max(high, low))
        if low > interval.low or high < interval.high:
            shrunk_any = True
        lows[j] = low
        highs[j] = high
    if not shrunk_any:
        return Subscription(schema, lows, highs)
    return Subscription(schema, lows, highs)
