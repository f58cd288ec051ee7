"""Subscription-generation scenarios of the evaluation (Section 6).

Each generator produces a :class:`ScenarioInstance` — a new subscription
``s`` together with the pre-existing set ``S`` — engineered so that the
instance falls in one of the paper's categories:

=======================  =============================================
Scenario                 Property of the instance
=======================  =============================================
``pairwise_covering``    some single ``s_i`` covers ``s`` (1.a)
``redundant_covering``   ``S`` covers ``s`` jointly, never singly, and
                         ~80 % of ``S`` is redundant (1.b)
``no_intersection``      no ``s_i`` even intersects ``s`` (2.a)
``non_cover``            ``S`` overlaps ``s`` heavily but leaves a gap
                         on one attribute (2.b)
``extreme_non_cover``    ``S`` covers everything except a narrow slice
                         of controlled relative width (2.c)
=======================  =============================================

The generators follow the construction rules stated in the paper: every
subscription is satisfiable, every ``s_i`` intersects ``s``, the ``s_i``
overlap each other on most attributes, and no pair-wise subsumption exists
in the "difficult" scenarios (so the classical baseline cannot reduce the
set at all).  :func:`validate_instance` checks each of these claims on a
generated instance, the cover answer against the exact oracle.

Stream contract
---------------
An instance is a pure function of the generator's state, and generating
it consumes the generator exactly as the per-attribute scalar code these
functions replaced (the reference in ``tests/test_instance_generation.py``,
equal on bounds, answers, redundant positions and ``bit_generator.state``
under PCG64, MT19937, Philox and SFC64).  Every ``Generator.uniform(a, b)``
or ``Generator.random()`` of that code takes one double ``d`` and yields
``a + (b - a) * d``, so the doubles of a candidate — or of a whole run of
candidates — are one ``random(n)`` call with the bounds computed as array
expressions over them.  The integer draws (``integers``, ``permutation``)
stay where they were in the call order: PCG64 serves a 32-bit draw from
half of a 64-bit word and keeps the other half for the next one, so an
integer draw cannot move across doubles.  Where the number of doubles
depends on the values — the ``cover_probability`` roll of an intersecting
candidate, a zero width, the side roll of ``non_cover``'s gap clip, the
two draws of :func:`_avoid_full_cover` firing only on a cover — the
doubles are drawn ahead and the generator is put back after the last one
used (``generators._Tape``).  Per family, in call order:

* ``pairwise_covering``: ``s`` (``2m`` doubles), all ``k - 1`` intersecting
  candidates (one draw-ahead), ``permutation(k)``;
* ``redundant_covering``: ``s``, the shared sides (``m``), then per
  redundant candidate a roll and either a contrarian roll,
  ``integers(1, m)`` and ``m`` doubles (one-sided) or one draw-ahead
  (intersecting);
* ``no_intersection``: ``s``, then per candidate one draw-ahead,
  ``integers(0, m)`` and the push's double where the attribute has room;
* ``non_cover``: ``s``, the gap (one or two doubles), all ``k`` candidates
  with their gap and cover clips (one draw-ahead);
* ``extreme_non_cover``: ``s``, the gap, the tiles' stretches and margins
  (one call), per padding candidate ``integers`` and ``m - 1`` doubles,
  ``permutation``.

Each instance is built by one :meth:`Subscription.from_matrix` call, ``s``
first, so identifiers are minted in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.exact import exact_group_cover
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng
from repro.workloads.generators import (
    _Bounds,
    _ceil,
    _domain_vectors,
    _expanded_bounds,
    _floor,
    _intersecting_bounds,
    _intersecting_draws,
    _intersecting_tape_size,
    _max,
    _min,
    _random_bounds,
    _slab_edges,
    _Tape,
    _tape_draws,
    _uniform,
    _walk_intersecting,
)

__all__ = [
    "ScenarioName",
    "ScenarioInstance",
    "ValidationResult",
    "pairwise_covering_scenario",
    "redundant_covering_scenario",
    "no_intersection_scenario",
    "non_cover_scenario",
    "extreme_non_cover_scenario",
    "generate_scenario",
    "validate_instance",
]

#: width band of the intersecting candidates (``random_subscription_intersecting``'s default)
_CANDIDATE_WIDTH = (0.05, 0.3)


class ScenarioName(str, Enum):
    """The subscription-generation scenarios of Section 6."""

    PAIRWISE_COVERING = "pairwise_covering"
    REDUNDANT_COVERING = "redundant_covering"
    NO_INTERSECTION = "no_intersection"
    NON_COVER = "non_cover"
    EXTREME_NON_COVER = "extreme_non_cover"


@dataclass
class ScenarioInstance:
    """One generated instance of a subsumption question.

    Attributes
    ----------
    subscription:
        The new subscription ``s`` whose coverage is to be decided.
    candidates:
        The existing subscription set ``S``.
    expected_covered:
        Ground-truth answer by construction (``None`` when unknown).
    redundant_ids:
        Identifiers of the candidates that are redundant for the cover
        decision (used to measure the MCS reduction of Figures 6 and 8).
    metadata:
        Scenario-specific parameters (gap fraction, covering-group size…).
    """

    subscription: Subscription
    candidates: List[Subscription]
    expected_covered: Optional[bool]
    redundant_ids: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def k(self) -> int:
        """Number of candidate subscriptions."""
        return len(self.candidates)


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _base_bounds(schema: Schema, rng: np.random.Generator) -> _Bounds:
    """A moderately sized box used as the tested ``s``."""
    return _random_bounds(rng, *_domain_vectors(schema), (0.15, 0.35))


def _instance(
    schema: Schema, base: _Bounds, lows: np.ndarray, highs: np.ndarray
) -> Tuple[Subscription, List[Subscription]]:
    """``s`` and its candidates, from one :meth:`Subscription.from_matrix` call."""
    rows = Subscription.from_matrix(
        schema, np.vstack([base[0], lows]), np.vstack([base[1], highs])
    )
    return rows[0], rows[1:]


def _shrink_attribute(schema: Schema, lows: np.ndarray, highs: np.ndarray) -> Optional[int]:
    """The attribute :func:`_avoid_full_cover` cuts: the first one, unless
    the reference is (almost) a point there, then the first one that is
    not; ``None`` when there is none."""
    discrete = schema.vectors.discrete
    wide = np.flatnonzero(highs - lows > np.where(discrete, 1.0, 1e-9))
    return int(wide[0]) if len(wide) else None


def _avoid_full_cover(
    lows: np.ndarray,
    highs: np.ndarray,
    reference_lows: np.ndarray,
    reference_highs: np.ndarray,
    attribute: int,
    discrete: bool,
    draws: np.ndarray,
) -> None:
    """Keep a candidate row that pair-wise covers the reference from doing so.

    Its range on ``attribute`` is cut back to a strict part of the
    reference's (``draws``: the cut's fraction, then which end is cut), and
    the cut end lies at least one tick (one representable value on a
    continuous axis) inside the reference, so the candidate only partly
    covers it.  Writes into the rows.
    """
    low = float(reference_lows[attribute])
    high = float(reference_highs[attribute])
    cut = (high - low) * _uniform(draws[0], 0.2, 0.6)
    cut_top = draws[1] < 0.5
    if cut_top:
        highs[attribute] = high - cut
        lows[attribute] = min(lows[attribute], highs[attribute])
    else:
        lows[attribute] = low + cut
        highs[attribute] = max(highs[attribute], lows[attribute])
    if discrete:
        lows[attribute] = math.floor(lows[attribute])
        highs[attribute] = math.ceil(highs[attribute])
    if cut_top:
        inside = math.floor(high) - 1 if discrete else math.nextafter(high, -math.inf)
        highs[attribute] = min(highs[attribute], inside)
    else:
        inside = math.ceil(low) + 1 if discrete else math.nextafter(low, math.inf)
        lows[attribute] = max(lows[attribute], inside)


def _intersecting_candidates(
    rng: np.random.Generator,
    schema: Schema,
    reference_lows: np.ndarray,
    reference_highs: np.ndarray,
    count: int,
    cover_probability: float,
    tail: int = 0,
    clip: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], _Bounds]] = None,
) -> _Bounds:
    """``count`` intersecting candidates that never pair-wise cover the reference.

    Each candidate is a ``random_subscription_intersecting`` box, then
    ``clip(lows, highs, tail_draws)`` with its ``tail`` next doubles, then
    :func:`_avoid_full_cover` with two more doubles should it still cover
    the reference.  All ``count`` are drawn ahead on one tape and computed
    as one ``(count, m)`` block; a covering candidate ends the block (its
    two doubles shift every later candidate) and the rest are computed
    again from after it.
    """
    lower, upper, discrete = _domain_vectors(schema)
    attribute = _shrink_attribute(schema, reference_lows, reference_highs)
    tape = _Tape(
        rng, count * (_intersecting_tape_size(schema.m, cover_probability) + tail + 2)
    )
    blocks: List[_Bounds] = []
    position = 0
    while count:
        positions, ends = _walk_intersecting(
            tape, position, count, upper - lower, _CANDIDATE_WIDTH, cover_probability, tail
        )
        lows, highs = _intersecting_bounds(
            _tape_draws(tape, positions),
            reference_lows,
            reference_highs,
            schema,
            _CANDIDATE_WIDTH,
            cover_probability,
        )
        if clip is not None:
            lows, highs = clip(lows, highs, tape.values[ends[:, None] - np.arange(tail, 0, -1)])
        covering = (lows <= reference_lows).all(axis=1) & (
            reference_highs <= highs
        ).all(axis=1)
        position = int(ends[-1])
        if attribute is not None and covering.any():
            first = int(covering.argmax())
            lows, highs = lows[: first + 1], highs[: first + 1]
            position = int(ends[first]) + 2
            _avoid_full_cover(
                lows[first],
                highs[first],
                reference_lows,
                reference_highs,
                attribute,
                bool(discrete[attribute]),
                tape.values[position - 2 : position],
            )
        blocks.append((lows, highs))
        count -= len(lows)
    tape.close(position)
    return (
        np.concatenate([lows for lows, _ in blocks]),
        np.concatenate([highs for _, highs in blocks]),
    )


# ----------------------------------------------------------------------
# Scenario 1.a — pair-wise covering
# ----------------------------------------------------------------------
def pairwise_covering_scenario(
    schema: Schema,
    k: int,
    rng: RandomSource = None,
) -> ScenarioInstance:
    """``s`` is entirely covered by at least one single candidate."""
    if k < 1:
        raise ValueError("k must be at least 1")
    generator = ensure_rng(rng)
    base = _base_bounds(schema, generator)
    coverer = _expanded_bounds(schema, *base, margin_fraction=0.05)
    others = _intersecting_bounds(
        _intersecting_draws(generator, schema, k - 1, _CANDIDATE_WIDTH, 0.0),
        *base,
        schema,
        _CANDIDATE_WIDTH,
        0.0,
    )
    subscription, candidates = _instance(
        schema, base, np.vstack([others[0], coverer[0]]), np.vstack([others[1], coverer[1]])
    )
    covering = candidates[-1]
    positions = generator.permutation(len(candidates))
    candidates = [candidates[i] for i in positions]
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=True,
        redundant_ids=tuple(c.id for c in candidates if c.id != covering.id),
        metadata={"scenario": ScenarioName.PAIRWISE_COVERING.value},
    )


# ----------------------------------------------------------------------
# Scenario 1.b — redundant covering
# ----------------------------------------------------------------------
def redundant_covering_scenario(
    schema: Schema,
    k: int,
    rng: RandomSource = None,
    covering_fraction: float = 0.2,
    slab_overlap_fraction: float = 0.02,
    one_sided_fraction: float = 1.0,
    contrarian_probability: float = 0.02,
) -> ScenarioInstance:
    """``S`` covers ``s`` jointly (never singly); ~80 % of ``S`` is redundant.

    The first ``covering_fraction`` of the candidates partition ``s`` into
    slabs along the first attribute (each covering ``s`` completely on all
    other attributes), so their union covers ``s`` but none does so alone.
    Neighbouring slabs overlap by ``slab_overlap_fraction`` of ``s``'s span;
    a slab that the overlap (rounded outwards on a discrete axis) would
    stretch over the whole of ``s`` keeps its exact ends instead.

    The remaining candidates only partly cover ``s`` and are therefore
    redundant for the cover decision — exactly the setting of Figure 6.
    Following the paper's "similar but not equal interests" motivation, a
    fraction ``one_sided_fraction`` of the redundant subscriptions differ
    from ``s`` along a single non-covering attribute only (they cover ``s``
    on every other attribute but stop short on one side of that attribute,
    the side being shared by subscribers interested in the same attribute),
    while the rest are unstructured partial overlaps of ``s``.  With
    probability ``contrarian_probability`` a one-sided subscription uses the
    *opposite* side of its attribute, which makes some conflict-table
    entries conflict and keeps the MCS reduction below 100 %, reproducing
    the 80–100 % band of Figure 6.
    """
    if k < 2:
        raise ValueError("the redundant covering scenario needs k >= 2")
    generator = ensure_rng(rng)
    base = _base_bounds(schema, generator)

    covering_count = max(2, int(round(covering_fraction * k)))
    covering_count = min(covering_count, k)
    covering = _covering_slabs(schema, *base, covering_count, slab_overlap_fraction)

    # Per-instance choice of which side the one-sided subscribers of each
    # attribute share (e.g. everybody interested in "price" asks for
    # "price <= c", everybody interested in "date" for "date >= d").
    shared_side_is_lower = generator.random(schema.m) < 0.5

    slabs = len(covering[0])
    redundant_count = k - slabs
    lows = np.empty((redundant_count, schema.m))
    highs = np.empty((redundant_count, schema.m))
    one_sided: List[int] = []
    attributes: List[int] = []
    lower_sides: List[bool] = []
    draws: List[np.ndarray] = []
    for row in range(redundant_count):
        if schema.m > 1 and generator.random() < one_sided_fraction:
            contrarian = generator.random() < contrarian_probability
            attribute = int(generator.integers(1, schema.m))
            one_sided.append(row)
            attributes.append(attribute)
            lower_sides.append(bool(shared_side_is_lower[attribute]) != contrarian)
            draws.append(generator.random(schema.m))
        else:
            lows[row : row + 1], highs[row : row + 1] = _intersecting_candidates(
                generator, schema, *base, 1, cover_probability=0.5
            )
    if one_sided:
        lows[one_sided], highs[one_sided] = _one_sided_partial_covers(
            schema, *base, np.array(attributes), np.array(lower_sides), np.array(draws)
        )

    subscription, candidates = _instance(
        schema, base, np.vstack([covering[0], lows]), np.vstack([covering[1], highs])
    )
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=True,
        redundant_ids=tuple(c.id for c in candidates[slabs:]),
        metadata={
            "scenario": ScenarioName.REDUNDANT_COVERING.value,
            "covering_count": slabs,
            "redundant_count": redundant_count,
        },
    )


def _covering_slabs(
    schema: Schema,
    lows: np.ndarray,
    highs: np.ndarray,
    count: int,
    overlap_fraction: float,
) -> _Bounds:
    """The covering group: slabs of ``s`` along the first attribute, each
    overlapping its neighbours there and ``s`` by a 1 % margin elsewhere."""
    lower, upper, discrete = _domain_vectors(schema)
    starts, ends = _slab_edges(float(lows[0]), float(highs[0]), count, bool(discrete[0]))
    margin = (upper - lower) * 0.01
    slab_lows = np.tile(_max(lower, lows - margin), (len(starts), 1))
    slab_highs = np.tile(_min(upper, highs + margin), (len(starts), 1))
    # Small overlap between neighbouring slabs and a small margin on the
    # other attributes make the covering group look like organic,
    # similar-interest subscriptions rather than an exact partition.
    overlap = (highs[0] - lows[0]) * overlap_fraction
    first_lows = _max(lower[0], starts - overlap)
    first_highs = _min(upper[0], ends + overlap)
    if discrete[0]:
        first_lows = _floor(first_lows)
        first_highs = _ceil(first_highs)
    if len(starts) > 1:
        alone = (first_lows <= lows[0]) & (first_highs >= highs[0])
        first_lows = np.where(alone, starts, first_lows)
        first_highs = np.where(alone, ends, first_highs)
    slab_lows[:, 0] = first_lows
    slab_highs[:, 0] = first_highs
    return slab_lows, slab_highs


def _one_sided_partial_covers(
    schema: Schema,
    reference_lows: np.ndarray,
    reference_highs: np.ndarray,
    attributes: np.ndarray,
    lower_sides: np.ndarray,
    draws: np.ndarray,
) -> _Bounds:
    """Candidates covering the reference on all attributes but one, one per row.

    On row ``i``'s attribute (never the first one, which carries the
    covering slabs) the candidate keeps only the lower part of the
    reference's range (``lower_sides[i]``) or the upper part, cut at a
    random point; the side is shared by every one-sided candidate of that
    attribute so that their conflict-table entries do not conflict with
    each other.  ``draws[i]`` are the row's ``m`` doubles: the cut, then a
    margin for each other attribute in attribute order.
    """
    lower, upper, discrete = _domain_vectors(schema)
    count, m = draws.shape
    rows = np.arange(count)
    on_attribute = discrete[attributes]
    low = reference_lows[attributes]
    high = reference_highs[attributes]
    span = high - low
    cut = low + span * _uniform(draws[:, 0], 0.2, 0.8)
    cut = np.where(on_attribute, np.rint(cut) + 0.0, cut)

    others = np.arange(m - 1)
    columns = others + (others >= attributes[:, np.newaxis])
    margins = np.zeros((count, m))
    margins[rows[:, np.newaxis], columns] = (upper - lower)[columns] * _uniform(
        draws[:, 1:], 0.0, 0.02
    )
    lows = _max(lower, reference_lows - margins)
    highs = _min(upper, reference_highs + margins)

    tick = np.where(on_attribute, 1.0, _max(span * 1e-9, 1e-12))
    cut_low = np.where(
        lower_sides, _max(lower[attributes], low - span * 0.02), _max(cut, low + tick)
    )
    cut_high = np.where(
        lower_sides, _min(cut, high - tick), _min(upper[attributes], high + span * 0.02)
    )
    cut_low = np.where(on_attribute, _floor(cut_low), cut_low)
    cut_high = np.where(on_attribute, _ceil(cut_high), cut_high)
    lows[rows, attributes] = np.where(cut_low > cut_high, cut_high, cut_low)
    highs[rows, attributes] = cut_high
    return lows, highs


# ----------------------------------------------------------------------
# Scenario 2.a — no intersection
# ----------------------------------------------------------------------
def no_intersection_scenario(
    schema: Schema,
    k: int,
    rng: RandomSource = None,
) -> ScenarioInstance:
    """No candidate intersects ``s`` at all.

    Each candidate is drawn intersecting ``s``, then pushed fully outside
    it on one random attribute.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    generator = ensure_rng(rng)
    base = _base_bounds(schema, generator)
    _, _, _, below, above = _push_outside_sides(schema, *base)
    drawn = below | above

    draws: List[np.ndarray] = []
    attributes: List[int] = []
    push_draws: List[float] = []
    for _ in range(k):
        draws.append(_intersecting_draws(generator, schema, 1, _CANDIDATE_WIDTH, 0.0))
        attribute = int(generator.integers(0, schema.m))
        attributes.append(attribute)
        push_draws.append(generator.random() if drawn[attribute] else 0.0)
    lows, highs = _intersecting_bounds(
        np.concatenate(draws), *base, schema, _CANDIDATE_WIDTH, 0.0
    )
    lows, highs = _push_outside(
        schema, *base, lows, highs, np.array(attributes), np.array(push_draws)
    )
    subscription, candidates = _instance(schema, base, lows, highs)
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=False,
        redundant_ids=tuple(c.id for c in candidates),
        metadata={"scenario": ScenarioName.NO_INTERSECTION.value},
    )


def _push_outside_sides(
    schema: Schema, reference_lows: np.ndarray, reference_highs: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Per attribute: the tick, the room below and above the reference in
    the domain, and whether a push goes below with a random width or above
    with one (else to the side with room, with no draw)."""
    lower, upper, discrete = _domain_vectors(schema)
    tick = np.where(discrete, 1.0, _max((upper - lower) * 1e-6, 1e-9))
    room_below = reference_lows - lower
    room_above = upper - reference_highs
    below = (room_below >= room_above) & (room_below > tick)
    above = ~below & (room_above > tick)
    return tick, room_below, room_above, below, above


def _push_outside(
    schema: Schema,
    reference_lows: np.ndarray,
    reference_highs: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    attributes: np.ndarray,
    draws: np.ndarray,
) -> _Bounds:
    """Move each candidate row fully outside the reference on its attribute.

    The candidate goes to the side of the reference with more room in the
    domain, taking 20–80 % of that room (``draws``); when neither side has
    more than a tick, to whichever side has one, even if the slice is a
    single point.
    """
    lower, upper, discrete = _domain_vectors(schema)
    tick, room_below, room_above, below, above = (
        values[attributes]
        for values in _push_outside_sides(schema, reference_lows, reference_highs)
    )
    lower, upper, discrete = lower[attributes], upper[attributes], discrete[attributes]
    ref_low, ref_high = reference_lows[attributes], reference_highs[attributes]
    fraction = _uniform(draws, 0.2, 0.8)
    under = ref_low - tick
    over = ref_high + tick
    fallback_below = room_below >= tick
    low = np.select(
        [below, above, fallback_below],
        [_max(lower, under - room_below * fraction), over, lower],
        over,
    )
    high = np.select(
        [below, above, fallback_below],
        [under, _min(upper, over + room_above * fraction), under],
        upper,
    )
    low = np.where(discrete, _ceil(low), low)
    high = np.where(discrete, _floor(high), high)
    low = _min(_max(low, lower), upper)
    high = _min(_max(high, low), upper)
    lows = lows.copy()
    highs = highs.copy()
    rows = np.arange(len(lows))
    lows[rows, attributes] = low
    highs[rows, attributes] = high
    return lows, highs


# ----------------------------------------------------------------------
# Scenario 2.b — non-cover with a forced gap
# ----------------------------------------------------------------------
def non_cover_scenario(
    schema: Schema,
    k: int,
    rng: RandomSource = None,
    gap_fraction: Optional[float] = None,
    cover_probability: float = 0.7,
) -> ScenarioInstance:
    """``S`` overlaps ``s`` on many attributes but leaves a gap on one.

    A slice of ``s`` on the first attribute (``gap_fraction`` of its span,
    random in ``[0.05, 0.2]`` when not given) is kept clear of every
    candidate, so ``s`` is never covered; everything else is generated to
    overlap heavily, which is the difficult setting of Figures 8–10.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    generator = ensure_rng(rng)
    base = _base_bounds(schema, generator)
    fraction = (
        float(generator.uniform(0.05, 0.2)) if gap_fraction is None else gap_fraction
    )
    gap_low, gap_high = _carve_gap(schema, *base, fraction, generator)
    tick, left_room, right_room = _gap_rooms(schema, *base, gap_low, gap_high)
    # with room on both sides a roll picks the side, else the side with room
    rolled = left_room and right_room

    def avoid_gap(lows: np.ndarray, highs: np.ndarray, rolls: np.ndarray) -> _Bounds:
        go_left = rolls[:, 0] < 0.5 if rolled else np.full(len(lows), left_room)
        return _avoid_gap(schema, *base, lows, highs, go_left, gap_low, gap_high, tick)

    lows, highs = _intersecting_candidates(
        generator, schema, *base, k, cover_probability, tail=int(rolled), clip=avoid_gap
    )
    subscription, candidates = _instance(schema, base, lows, highs)
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=False,
        redundant_ids=tuple(c.id for c in candidates),
        metadata={
            "scenario": ScenarioName.NON_COVER.value,
            "gap_fraction": fraction,
            "gap": (gap_low, gap_high),
        },
    )


def _carve_gap(
    schema: Schema,
    lows: np.ndarray,
    highs: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
) -> Tuple[float, float]:
    """Choose a gap strictly inside ``s``'s range on the first attribute."""
    discrete = schema.domain(0).is_discrete
    low, high = float(lows[0]), float(highs[0])
    span = high - low
    width = max(span * fraction, 1.0 if discrete else span * 1e-6)
    margin = max(span * 0.05, 1.0 if discrete else span * 1e-6)
    start_low = low + margin
    start_high = max(high - margin - width, start_low)
    gap_low = float(rng.uniform(start_low, start_high))
    gap_high = gap_low + width
    if discrete:
        gap_low = math.floor(gap_low)
        gap_high = math.ceil(gap_high)
        gap_high = max(gap_high, gap_low)
    gap_high = min(gap_high, high - (1.0 if discrete else 0.0))
    gap_low = max(gap_low, low + (1.0 if discrete else 0.0))
    if gap_low > gap_high:
        gap_low = gap_high
    return gap_low, gap_high


def _gap_rooms(
    schema: Schema,
    lows: np.ndarray,
    highs: np.ndarray,
    gap_low: float,
    gap_high: float,
) -> Tuple[float, bool, bool]:
    """The first attribute's tick, and whether ``s`` reaches a tick past
    the gap on its left and on its right."""
    domain = schema.domain(0)
    tick = 1.0 if domain.is_discrete else max(
        (domain.upper_bound - domain.lower_bound) * 1e-9, 1e-12
    )
    return tick, bool(gap_low - tick >= lows[0]), bool(gap_high + tick <= highs[0])


def _avoid_gap(
    schema: Schema,
    reference_lows: np.ndarray,
    reference_highs: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    go_left: np.ndarray,
    gap_low: float,
    gap_high: float,
    tick: float,
) -> _Bounds:
    """Clip each candidate row to one side of the gap on the first attribute.

    A row going left keeps its low end (at most ``s``'s) and stops a tick
    short of the gap; one going right starts a tick past it and keeps its
    high end (at least ``s``'s).
    """
    lower, upper, discrete = _domain_vectors(schema)
    left_high = gap_low - tick
    left_low = _min(_min(lows[:, 0], reference_lows[0]), left_high)
    right_low = gap_high + tick
    right_high = _max(_max(highs[:, 0], reference_highs[0]), right_low)
    low = np.where(go_left, left_low, right_low)
    high = np.where(go_left, left_high, right_high)
    if discrete[0]:
        low = _floor(low)
        high = _ceil(high)
    low = _max(low, lower[0])
    high = _min(high, upper[0])
    lows = lows.copy()
    highs = highs.copy()
    lows[:, 0] = np.where(low > high, high, low)
    highs[:, 0] = high
    return lows, highs


# ----------------------------------------------------------------------
# Scenario 2.c — extreme non-cover
# ----------------------------------------------------------------------
def extreme_non_cover_scenario(
    schema: Schema,
    k: int,
    gap_fraction: float,
    rng: RandomSource = None,
) -> ScenarioInstance:
    """``S`` covers ``s`` entirely except a narrow slice on one attribute.

    ``gap_fraction`` is the width of the uncovered slice relative to ``s``'s
    span on the gap attribute (0.5 %–4.5 % in Figures 11 and 12).  The
    candidates *tile* the part of ``s`` left of the gap and the part right
    of it (with small random overlaps between neighbouring tiles), and each
    covers ``s`` completely on every other attribute.  As in the paper, the
    candidates intersect ``s`` and (within each side) intersect each other,
    no pair-wise subsumption exists, and — because neighbouring tiles make
    every conflict-table entry conflict with another one — the MCS
    reduction cannot discard any candidate, so the probabilistic RSPC test
    is genuinely exercised and may produce false "covered" decisions when
    the gap is small (exactly the Figure 11/12 setting).
    """
    if k < 4:
        raise ValueError("the extreme non-cover scenario needs k >= 4")
    if not 0.0 < gap_fraction < 1.0:
        raise ValueError("gap_fraction must be in (0, 1)")
    generator = ensure_rng(rng)
    base = _base_bounds(schema, generator)
    gap_low, gap_high = _carve_gap(schema, *base, gap_fraction, generator)
    tick, _, _ = _gap_rooms(schema, *base, gap_low, gap_high)
    discrete = bool(schema.domain(0).is_discrete)

    left_low, left_high = float(base[0][0]), gap_low - tick
    right_low, right_high = gap_high + tick, float(base[1][0])
    if discrete:
        left_high = math.floor(left_high)
        right_low = math.ceil(right_low)
    n_left = k // 2
    regions = [
        (left_low, left_high) + _tile_region(left_low, left_high, n_left, discrete),
        (right_low, right_high) + _tile_region(right_low, right_high, k - n_left, discrete),
    ]
    tile_count = sum(len(starts) for _, _, starts, _ in regions)

    # One stretch per tile (left, then right), then every tile's margins.
    draws = generator.random(tile_count * schema.m)
    tile_lows, tile_highs = [], []
    used = 0
    for region_low, region_high, starts, ends in regions:
        stretched = _stretch_tiles(
            region_low, region_high, starts, ends, draws[used : used + len(starts)], discrete
        )
        tile_lows.append(stretched[0])
        tile_highs.append(stretched[1])
        used += len(starts)
    tile_lows = np.concatenate(tile_lows)
    tile_highs = np.concatenate(tile_highs)
    margins = [draws[tile_count:].reshape(tile_count, schema.m - 1)]
    chosen = [np.arange(tile_count)]

    # Discrete regions narrower than the requested tile count yield fewer
    # tiles; pad with duplicated random tiles so the instance has exactly k
    # candidates (the duplicates are redundant but harmless).
    if tile_count:
        for _ in range(k - tile_count):
            chosen.append([int(generator.integers(0, tile_count))])
            margins.append(generator.random((1, schema.m - 1)))
    chosen = np.concatenate(chosen).astype(np.intp)
    lows, highs = _wide_on_other_attributes(schema, *base, np.concatenate(margins))
    lows[:, 0] = tile_lows[chosen]
    highs[:, 0] = _max(tile_highs[chosen], tile_lows[chosen])

    subscription, candidates = _instance(schema, base, lows, highs)
    positions = generator.permutation(len(candidates))
    candidates = [candidates[i] for i in positions]
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=False,
        redundant_ids=tuple(c.id for c in candidates),
        metadata={
            "scenario": ScenarioName.EXTREME_NON_COVER.value,
            "gap_fraction": gap_fraction,
            "gap": (gap_low, gap_high),
        },
    )


def _tile_region(
    region_low: float, region_high: float, pieces: int, discrete: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Contiguous tiles of ``[region_low, region_high]`` as ``(starts, ends)``;
    none when the region is empty."""
    if region_low > region_high or pieces < 1:
        return np.empty(0), np.empty(0)
    if discrete:
        return _slab_edges(region_low, region_high, pieces, True)
    edges = region_low + (region_high - region_low) * np.arange(pieces + 1) / pieces
    return edges[:-1], edges[1:]


def _stretch_tiles(
    region_low: float,
    region_high: float,
    starts: np.ndarray,
    ends: np.ndarray,
    draws: np.ndarray,
    discrete: bool,
) -> _Bounds:
    """Small random overlap of each tile with its neighbours (never into
    the gap or outside the region), up to 2 % of the region's span."""
    stretch = (region_high - region_low) * _uniform(draws, 0.0, 0.02)
    lows = _max(region_low, starts - stretch)
    highs = _min(region_high, ends + stretch)
    if discrete:
        lows = _max(_floor(lows), region_low)
        highs = _min(_ceil(highs), region_high)
    return lows, highs


def _wide_on_other_attributes(
    schema: Schema, lows: np.ndarray, highs: np.ndarray, draws: np.ndarray
) -> _Bounds:
    """``s`` widened on attributes ``1..m-1`` by up to 2 % of each domain,
    one row per row of ``draws`` (a margin per attribute)."""
    lower, upper, _ = _domain_vectors(schema)
    margin = (upper - lower)[1:] * _uniform(draws, 0.0, 0.02)
    wide_lows = np.tile(lows, (len(draws), 1))
    wide_highs = np.tile(highs, (len(draws), 1))
    wide_lows[:, 1:] = _max(lower[1:], lows[1:] - margin)
    wide_highs[:, 1:] = _min(upper[1:], highs[1:] + margin)
    return wide_lows, wide_highs


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def generate_scenario(
    name: ScenarioName,
    schema: Schema,
    k: int,
    rng: RandomSource = None,
    **kwargs: Any,
) -> ScenarioInstance:
    """Generate an instance of the named scenario."""
    name = ScenarioName(name)
    if name is ScenarioName.PAIRWISE_COVERING:
        return pairwise_covering_scenario(schema, k, rng)
    if name is ScenarioName.REDUNDANT_COVERING:
        return redundant_covering_scenario(schema, k, rng, **kwargs)
    if name is ScenarioName.NO_INTERSECTION:
        return no_intersection_scenario(schema, k, rng)
    if name is ScenarioName.NON_COVER:
        return non_cover_scenario(schema, k, rng, **kwargs)
    if name is ScenarioName.EXTREME_NON_COVER:
        return extreme_non_cover_scenario(schema, k, rng=rng, **kwargs)
    raise ValueError(f"unknown scenario {name!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValidationResult:
    """What :func:`validate_instance` found on one instance.

    ``checks`` maps each property the instance's family claims to whether
    the instance has it.
    """

    scenario: str
    checks: Dict[str, bool]

    @property
    def ok(self) -> bool:
        """Whether every claimed property holds."""
        return all(self.checks.values())

    @property
    def failed(self) -> Tuple[str, ...]:
        """The claimed properties that do not hold."""
        return tuple(name for name, held in self.checks.items() if not held)


def _ticks_inside(schema: Schema, lows: np.ndarray, highs: np.ndarray) -> _Bounds:
    """Bounds rounded inwards to a tick on discrete attributes (the points
    a box actually holds, as :mod:`repro.core.exact` reads it)."""
    discrete = schema.vectors.discrete
    return np.where(discrete, np.ceil(lows), lows), np.where(discrete, np.floor(highs), highs)


def validate_instance(instance: ScenarioInstance) -> ValidationResult:
    """Check the properties the instance's family claims (its ``metadata["scenario"]``).

    * ``expected_covered``: the answer by construction equals
      :func:`repro.core.exact.exact_group_cover`;
    * ``pairwise_cover`` (``pairwise_covering``) or ``no_pairwise_cover``
      (the difficult families ``redundant_covering``, ``non_cover``,
      ``extreme_non_cover``): whether some single candidate holds every
      point of ``s``;
    * ``candidates_meet_s`` — or ``no_candidate_meets_s`` for
      ``no_intersection`` — on the points each box holds;
    * ``gap_clear`` (``non_cover``, ``extreme_non_cover``): the recorded
      gap holds a point of ``s`` on the first attribute and no candidate
      reaches into it;
    * ``covering_group_covers`` (``redundant_covering``): the candidates
      outside ``redundant_ids`` alone cover ``s`` (exact oracle).
    """
    name = ScenarioName(instance.metadata["scenario"])
    subscription = instance.subscription
    schema = subscription.schema
    candidates = instance.candidates
    s_lows, s_highs = _ticks_inside(schema, subscription.lows, subscription.highs)
    lows = np.array([c.lows for c in candidates]).reshape(-1, schema.m)
    highs = np.array([c.highs for c in candidates]).reshape(-1, schema.m)
    lows, highs = _ticks_inside(schema, lows, highs)
    meets = (np.maximum(lows, s_lows) <= np.minimum(highs, s_highs)).all(axis=1)
    covers = (lows <= s_lows).all(axis=1) & (highs >= s_highs).all(axis=1)

    checks = {
        "expected_covered": instance.expected_covered
        == exact_group_cover(subscription, candidates)
    }
    if name is ScenarioName.PAIRWISE_COVERING:
        checks["pairwise_cover"] = bool(covers.any())
    elif name is not ScenarioName.NO_INTERSECTION:
        checks["no_pairwise_cover"] = not covers.any()
    if name is ScenarioName.NO_INTERSECTION:
        checks["no_candidate_meets_s"] = not meets.any()
    else:
        checks["candidates_meet_s"] = bool(meets.all())
    if name in (ScenarioName.NON_COVER, ScenarioName.EXTREME_NON_COVER):
        gap = np.array(instance.metadata["gap"], dtype=float)
        if schema.vectors.discrete[0]:
            gap = np.array([math.ceil(gap[0]), math.floor(gap[1])], dtype=float)
        inside = max(gap[0], s_lows[0]) <= min(gap[1], s_highs[0])
        clear = (highs[:, 0] < gap[0]) | (lows[:, 0] > gap[1])
        checks["gap_clear"] = bool(inside and clear.all())
    if name is ScenarioName.REDUNDANT_COVERING:
        redundant = set(instance.redundant_ids)
        checks["covering_group_covers"] = exact_group_cover(
            subscription, [c for c in candidates if c.id not in redundant]
        )
    return ValidationResult(scenario=name.value, checks=checks)
