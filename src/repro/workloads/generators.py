"""Low-level random generators for subscriptions and publications.

These helpers produce the geometric building blocks that the scenario
generators (:mod:`repro.workloads.scenarios`) compose: random boxes with a
controlled width, boxes intersecting a reference box, publications inside
or outside a box, and slab partitions of a box along one attribute.

Bounds are computed as array expressions over the attributes — ``(m,)``
for one box, ``(n, m)`` for a run of boxes — and every function consumes
its generator exactly as the per-attribute scalar code it replaces (kept
as the reference in ``tests/test_instance_generation.py``): one
``Generator.uniform(a, b)`` or ``Generator.random()`` call takes one
double ``d`` and returns ``a + (b - a) * d``, so a run of such calls is one
``random(n)`` call with the same arithmetic applied to the array
(:func:`_uniform`).  Where the number of draws depends on the values drawn
(the ``cover_probability`` roll, a zero width), the doubles are drawn
ahead on a :class:`_Tape` and the generator is put back just after the
last one used.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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

_Bounds = Tuple[np.ndarray, np.ndarray]


# ----------------------------------------------------------------------
# Elementwise forms of the scalar arithmetic
# ----------------------------------------------------------------------
def _uniform(draws, low, high):
    """``Generator.uniform(low, high)`` applied to already drawn doubles."""
    return low + (high - low) * draws


def _max(a, b):
    """Python's ``max(a, b)`` elementwise: ``b`` only where ``b > a``."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Python's ``min(a, b)`` elementwise: ``b`` only where ``b < a``."""
    return np.where(b < a, b, a)


def _floor(values):
    """``float(math.floor(x))`` elementwise (``-0.0`` comes out as ``0.0``)."""
    return np.floor(values) + 0.0


def _ceil(values):
    """``float(math.ceil(x))`` elementwise (``-0.0`` comes out as ``0.0``)."""
    return np.ceil(values) + 0.0


def _snap(low, high, lower, upper) -> _Bounds:
    """Clip ``[low, high]`` to the domain and round it outwards to ticks.

    Elementwise over ``(..., m)`` arrays; an inverted result collapses onto
    its upper end.
    """
    low = _max(_floor(_max(low, lower)), lower)
    high = _min(_ceil(_min(high, upper)), upper)
    return np.where(low > high, high, low), high


class _Tape:
    """Doubles drawn from a generator ahead of use.

    For draws whose count depends on the values drawn: ``values`` holds
    ``size`` doubles (at least as many as can be used), the caller reads
    them in order, and :meth:`close` puts the bit generator back just
    after the first ``used`` — the state it would be in had each of those
    doubles been drawn by its own call.
    """

    def __init__(self, rng: np.random.Generator, size: int):
        self._rng = rng
        self._state = rng.bit_generator.state
        self.values = rng.random(size)

    def close(self, used: int) -> None:
        if used < len(self.values):
            self._rng.bit_generator.state = self._state
            if used:
                self._rng.random(used)


# ----------------------------------------------------------------------
# Random boxes
# ----------------------------------------------------------------------
def _random_bounds(
    rng: np.random.Generator,
    lower: np.ndarray,
    upper: np.ndarray,
    width_fraction: Tuple[float, float],
) -> _Bounds:
    """Per attribute a width fraction, then a start: ``2m`` doubles in one call."""
    draws = rng.random(2 * len(lower))
    fraction = _uniform(draws[0::2], float(width_fraction[0]), float(width_fraction[1]))
    width = _max((upper - lower) * fraction, 0.0)
    start = _uniform(draws[1::2], lower, _max(upper - width, lower))
    return _snap(start, start + width, lower, upper)


def random_interval(
    domain,
    rng: np.random.Generator,
    width_fraction: Tuple[float, float] = (0.05, 0.3),
) -> Interval:
    """A random interval covering a fraction of ``domain``'s extent."""
    low, high = _random_bounds(
        rng,
        np.array([domain.lower_bound], dtype=float),
        np.array([domain.upper_bound], dtype=float),
        width_fraction,
    )
    return Interval(float(low[0]), float(high[0]))


def random_subscription(
    schema: Schema,
    rng: RandomSource = None,
    width_fraction: Tuple[float, float] = (0.05, 0.3),
    subscriber: Optional[str] = None,
) -> Subscription:
    """A random box subscription with per-attribute width in a fraction band."""
    lows, highs = _random_bounds(ensure_rng(rng), *schema.full_bounds(), width_fraction)
    return Subscription(schema, lows, highs, subscriber=subscriber)


def _intersecting_tape_size(m: int, cover_probability: float) -> int:
    """Most doubles one intersecting box can take: a roll, an anchor, a
    fraction and an offset per attribute."""
    return m * (4 if cover_probability > 0 else 3)


def _walk_intersecting(
    tape: _Tape,
    start: int,
    count: int,
    extent: np.ndarray,
    width_fraction: Tuple[float, float],
    cover_probability: float,
    tail: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Where on ``tape`` the draws of ``count`` consecutive intersecting
    boxes lie, from position ``start``, each box followed by ``tail`` more
    doubles that the caller reads.

    Per attribute a box draws a ``cover_probability`` roll (only when that
    is positive); unless the roll lands under it, an anchor, a width
    fraction and — when the width is positive — an offset.  Returns the
    positions as a ``(count, m, 4)`` array of (roll, anchor, fraction,
    offset), ``-1`` marking a draw not made, and each box's end position
    (after its tail).  Only positions are found here, one step per
    attribute; the bounds are array expressions over the drawn values
    (:func:`_intersecting_bounds`).
    """
    values = tape.values.tolist()
    extents = extent.tolist()
    low = float(width_fraction[0])
    span = float(width_fraction[1]) - low
    rolls = cover_probability > 0
    positions: List[int] = []
    ends: List[int] = []
    position = start
    for _ in range(count):
        for attribute_extent in extents:
            roll = -1
            if rolls:
                roll = position
                position += 1
                if values[roll] < cover_probability:
                    positions += (roll, -1, -1, -1)
                    continue
            anchor = position
            position += 2
            offset = -1
            if attribute_extent * (low + span * values[anchor + 1]) > 0:
                offset = position
                position += 1
            positions += (roll, anchor, anchor + 1, offset)
        position += tail
        ends.append(position)
    return (
        np.array(positions, dtype=np.intp).reshape(count, len(extents), 4),
        np.array(ends, dtype=np.intp),
    )


def _tape_draws(tape: _Tape, positions: np.ndarray) -> np.ndarray:
    """The doubles at ``positions``; a draw not made (``-1``) reads 1.0,
    which no roll lands under."""
    return np.append(tape.values, 1.0)[positions]


def _intersecting_draws(
    rng: np.random.Generator,
    schema: Schema,
    count: int,
    width_fraction: Tuple[float, float],
    cover_probability: float,
) -> np.ndarray:
    """The ``(count, m, 4)`` draws of ``count`` consecutive intersecting boxes."""
    if not count:
        return np.empty((0, schema.m, 4))
    tape = _Tape(rng, count * _intersecting_tape_size(schema.m, cover_probability))
    lower, upper = schema.full_bounds()
    positions, ends = _walk_intersecting(
        tape, 0, count, upper - lower, width_fraction, cover_probability
    )
    tape.close(int(ends[-1]))
    return _tape_draws(tape, positions)


def _intersecting_bounds(
    draws: np.ndarray,
    reference_lows: np.ndarray,
    reference_highs: np.ndarray,
    schema: Schema,
    width_fraction: Tuple[float, float],
    cover_probability: float,
) -> _Bounds:
    """The ``(count, m)`` bounds of intersecting boxes from their draws.

    An attribute whose roll lands under ``cover_probability`` covers the
    reference's range with a margin; any other is centred at its anchor
    (a point of the reference's range), so the box meets the reference.
    """
    lower, upper = schema.full_bounds()
    extent = upper - lower
    rolls, anchors, fractions, offsets = np.moveaxis(draws, -1, 0)
    covered = rolls < cover_probability
    anchor = _uniform(anchors, reference_lows, reference_highs)
    width = extent * _uniform(
        fractions, float(width_fraction[0]), float(width_fraction[1])
    )
    low = anchor - np.where(width > 0, _uniform(offsets, 0.0, width), 0.0)
    high = low + width
    margin = _max(extent * 0.01, 1.0)
    low = np.where(covered, reference_lows - margin, low)
    high = np.where(covered, reference_highs + margin, high)
    return _snap(low, high, lower, upper)


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
    schema = reference.schema
    draws = _intersecting_draws(
        ensure_rng(rng), schema, 1, width_fraction, cover_probability
    )
    lows, highs = _intersecting_bounds(
        draws,
        reference.lows,
        reference.highs,
        schema,
        width_fraction,
        cover_probability,
    )
    return Subscription(schema, lows[0], highs[0])


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


# ----------------------------------------------------------------------
# Deterministic boxes
# ----------------------------------------------------------------------
def _slab_edges(low: float, high: float, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``[low, high]`` ends of the slabs :func:`slab_partition` cuts."""
    total_points = int(high - low) + 1
    pieces = min(count, total_points)
    base, extra = divmod(total_points, pieces)
    sizes = base + (np.arange(pieces) < extra)
    ends = low + (np.cumsum(sizes) - 1.0)
    return ends - (sizes - 1.0), ends


def slab_partition(
    subscription: Subscription,
    count: int,
    attribute: int = 0,
) -> List[Subscription]:
    """Partition a box into ``count`` slabs along one attribute.

    The slabs jointly cover the box exactly (disjoint runs of consecutive
    ticks) — the basic construction for group-covering instances
    where no single slab covers the whole box.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    schema = subscription.schema
    starts, ends = _slab_edges(
        float(subscription.lows[attribute]),
        float(subscription.highs[attribute]),
        count,
    )
    lows = np.tile(subscription.lows, (len(starts), 1))
    highs = np.tile(subscription.highs, (len(starts), 1))
    lows[:, attribute] = starts
    highs[:, attribute] = ends
    return Subscription.from_matrix(schema, lows, highs)


def _expanded_bounds(
    schema: Schema, lows: np.ndarray, highs: np.ndarray, margin_fraction: float
) -> _Bounds:
    """Bounds of :func:`expand_to_cover`."""
    lower, upper = schema.full_bounds()
    margin = _max((upper - lower) * margin_fraction, 1.0)
    return _max(lower, lows - margin), _min(upper, highs + margin)


def expand_to_cover(
    subscription: Subscription,
    margin_fraction: float = 0.05,
) -> Subscription:
    """A box slightly larger than ``subscription`` on every attribute."""
    schema = subscription.schema
    return Subscription(
        schema,
        *_expanded_bounds(
            schema, subscription.lows, subscription.highs, margin_fraction
        ),
    )


def shrink_inside(
    subscription: Subscription,
    rng: RandomSource = None,
    shrink_fraction: Tuple[float, float] = (0.1, 0.5),
) -> Subscription:
    """A random box inside ``subscription``, always pair-wise covered by it.

    Every attribute holding more than one tick is cut by a random
    fraction of its span, split at random between its two ends, and
    rounded inwards — so wherever the box holds more than
    one point the result never equals the input.
    Each such attribute draws a fraction, then a split, in attribute order.
    """
    generator = ensure_rng(rng)
    schema = subscription.schema
    lows, highs = subscription.lows, subscription.highs
    span = highs - lows
    shrinkable = np.floor(highs) - np.ceil(lows) >= 1.0
    draws = np.zeros((schema.m, 2))
    draws[shrinkable] = generator.random(
        (int(np.count_nonzero(shrinkable)), 2)
    )
    shrink = span * _uniform(
        draws[:, 0], float(shrink_fraction[0]), float(shrink_fraction[1])
    )
    low = lows + _uniform(draws[:, 1], 0.0, shrink)
    high = _max(highs - (shrink - (low - lows)), low)
    low = _ceil(low)
    high = _floor(high)
    low = np.where(low > high, high, low)
    return Subscription(
        schema, np.where(shrinkable, low, lows), np.where(shrinkable, high, highs)
    )
