"""Section-6 instance generation: array expressions against the scalar code.

The generators of :mod:`repro.workloads.generators` and
:mod:`repro.workloads.scenarios` compute bounds as array expressions over
one ``random(n)`` call per candidate (or per run of candidates) and build
an instance with one :meth:`Subscription.from_matrix` call.  The
per-attribute scalar code they replaced is kept below as the reference —
one ``Generator.uniform`` / ``Generator.random`` call per bound, one
validating :class:`Subscription` per candidate — with the three fixes the
vectorised code carries (a cut end one tick inside the reference in
``_avoid_full_cover``, a covering slab never stretched over all of ``s``,
``shrink_inside`` rounding inwards).  No test reads the clock.
"""

import math
from dataclasses import replace
from typing import Tuple

import numpy as np
import pytest

from repro.core.exact import exact_group_cover
from repro.model import (
    CategoricalDomain,
    IntegerDomain,
    Schema,
    Subscription,
    TimestampDomain,
)
from repro.model.errors import ValidationError
from repro.model.intervals import Interval
from repro.workloads import scenarios
from repro.workloads.generators import (
    expand_to_cover,
    random_interval,
    random_subscription,
    random_subscription_intersecting,
    shrink_inside,
    slab_partition,
)
from repro.workloads.scenarios import (
    ScenarioInstance,
    ScenarioName,
    ValidationResult,
    generate_scenario,
    validate_instance,
)

BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def states_equal(first, second):
    """``bit_generator.state`` equality (MT19937 keeps its key in an array)."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            states_equal(first[key], second[key]) for key in first
        )
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    return first == second


# ----------------------------------------------------------------------
# The scalar reference
# ----------------------------------------------------------------------
def ref_snap(domain, low, high):
    low = max(low, domain.lower_bound)
    high = min(high, domain.upper_bound)
    low = math.floor(low)
    high = math.ceil(high)
    low = max(low, domain.lower_bound)
    high = min(high, domain.upper_bound)
    if low > high:
        low = high
    return float(low), float(high)


def ref_random_interval(domain, rng, width_fraction=(0.05, 0.3)):
    extent = domain.upper_bound - domain.lower_bound
    fraction = float(rng.uniform(width_fraction[0], width_fraction[1]))
    width = max(extent * fraction, 0.0)
    start = float(
        rng.uniform(domain.lower_bound, max(domain.upper_bound - width, domain.lower_bound))
    )
    return Interval(*ref_snap(domain, start, start + width))


def ref_random_subscription(schema, rng, width_fraction=(0.05, 0.3)):
    lows = np.empty(schema.m)
    highs = np.empty(schema.m)
    for j, attribute in enumerate(schema.attributes):
        interval = ref_random_interval(attribute.domain, rng, width_fraction)
        lows[j] = interval.low
        highs[j] = interval.high
    return Subscription(schema, lows, highs)


def ref_random_subscription_intersecting(
    reference, rng, width_fraction=(0.05, 0.3), cover_probability=0.0
):
    schema = reference.schema
    lows = np.empty(schema.m)
    highs = np.empty(schema.m)
    for j, attribute in enumerate(schema.attributes):
        domain = attribute.domain
        ref = reference.interval(j)
        if cover_probability > 0 and rng.random() < cover_probability:
            margin = max((domain.upper_bound - domain.lower_bound) * 0.01, 1.0)
            low, high = ref_snap(domain, ref.low - margin, ref.high + margin)
        else:
            anchor = float(rng.uniform(ref.low, ref.high))
            extent = domain.upper_bound - domain.lower_bound
            fraction = float(rng.uniform(width_fraction[0], width_fraction[1]))
            width = extent * fraction
            offset = float(rng.uniform(0.0, width)) if width > 0 else 0.0
            low, high = ref_snap(domain, anchor - offset, anchor - offset + width)
        lows[j] = low
        highs[j] = high
    return Subscription(schema, lows, highs)


def ref_slab_partition(subscription, count, attribute=0):
    schema = subscription.schema
    interval = subscription.interval(attribute)
    slabs = []

    def make_slab(low, high):
        lows = subscription.lows.copy()
        highs = subscription.highs.copy()
        lows[attribute] = low
        highs[attribute] = high
        slabs.append(Subscription(schema, lows, highs))

    total_points = int(interval.high - interval.low) + 1
    pieces = min(count, total_points)
    base, extra = divmod(total_points, pieces)
    low = interval.low
    for index in range(pieces):
        size = base + (1 if index < extra else 0)
        high = low + size - 1
        make_slab(low, high)
        low = high + 1
    return slabs


def ref_expand_to_cover(subscription, margin_fraction=0.05):
    schema = subscription.schema
    lows = subscription.lows.copy()
    highs = subscription.highs.copy()
    for j, attribute in enumerate(schema.attributes):
        domain = attribute.domain
        extent = domain.upper_bound - domain.lower_bound
        margin = max(extent * margin_fraction, 1.0)
        lows[j] = max(domain.lower_bound, lows[j] - margin)
        highs[j] = min(domain.upper_bound, highs[j] + margin)
    return Subscription(schema, lows, highs)


def ref_shrink_inside(subscription, rng, shrink_fraction=(0.1, 0.5)):
    schema = subscription.schema
    lows = subscription.lows.copy()
    highs = subscription.highs.copy()
    for j in range(schema.m):
        interval = subscription.interval(j)
        if math.floor(interval.high) - math.ceil(interval.low) < 1:
            continue
        span = interval.high - interval.low
        shrink = span * float(rng.uniform(*shrink_fraction))
        low = interval.low + float(rng.uniform(0.0, shrink))
        high = max(interval.high - (shrink - (low - interval.low)), low)
        low = math.ceil(low)
        high = math.floor(high)
        if low > high:
            low = high
        lows[j] = low
        highs[j] = high
    return Subscription(schema, lows, highs)


def ref_base_subscription(schema, rng):
    return ref_random_subscription(schema, rng, width_fraction=(0.15, 0.35))


def ref_avoid_full_cover(candidate, reference, rng):
    if not candidate.covers(reference):
        return candidate
    schema = reference.schema
    interval = reference.interval(0)
    span = interval.high - interval.low
    if span <= 1.0:
        for attribute in range(1, schema.m):
            interval = reference.interval(attribute)
            span = interval.high - interval.low
            if span > 1.0:
                return ref_shrink_on_attribute(candidate, reference, attribute, rng)
        return candidate
    return ref_shrink_on_attribute(candidate, reference, 0, rng)


def ref_shrink_on_attribute(candidate, reference, attribute, rng):
    interval = reference.interval(attribute)
    span = interval.high - interval.low
    cut = span * float(rng.uniform(0.2, 0.6))
    lows = candidate.lows.copy()
    highs = candidate.highs.copy()
    cut_top = rng.random() < 0.5
    if cut_top:
        highs[attribute] = interval.high - cut
        lows[attribute] = min(lows[attribute], highs[attribute])
    else:
        lows[attribute] = interval.low + cut
        highs[attribute] = max(highs[attribute], lows[attribute])
    lows[attribute] = math.floor(lows[attribute])
    highs[attribute] = math.ceil(highs[attribute])
    # the cut end lies a tick inside the reference
    if cut_top:
        highs[attribute] = min(highs[attribute], math.floor(interval.high) - 1)
    else:
        lows[attribute] = max(lows[attribute], math.ceil(interval.low) + 1)
    return Subscription(candidate.schema, lows, highs)


def ref_pairwise_covering(schema, k, rng):
    subscription = ref_base_subscription(schema, rng)
    coverer = ref_expand_to_cover(subscription, margin_fraction=0.05)
    others = [ref_random_subscription_intersecting(subscription, rng) for _ in range(k - 1)]
    candidates = others + [coverer]
    positions = rng.permutation(len(candidates))
    candidates = [candidates[i] for i in positions]
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=True,
        redundant_ids=tuple(c.id for c in candidates if c.id != coverer.id),
        metadata={"scenario": "pairwise_covering"},
    )


def ref_redundant_covering(
    schema,
    k,
    rng,
    covering_fraction=0.2,
    slab_overlap_fraction=0.02,
    one_sided_fraction=1.0,
    contrarian_probability=0.02,
):
    subscription = ref_base_subscription(schema, rng)
    covering_count = min(max(2, int(round(covering_fraction * k))), k)
    slabs = ref_slab_partition(subscription, covering_count, attribute=0)
    covering = []
    domain0 = schema.domain(0)
    span0 = subscription.highs[0] - subscription.lows[0]
    overlap = span0 * slab_overlap_fraction
    for slab in slabs:
        lows = slab.lows.copy()
        highs = slab.highs.copy()
        lows[0] = max(domain0.lower_bound, lows[0] - overlap)
        highs[0] = min(domain0.upper_bound, highs[0] + overlap)
        for attribute in range(1, schema.m):
            domain = schema.domain(attribute)
            margin = (domain.upper_bound - domain.lower_bound) * 0.01
            lows[attribute] = max(domain.lower_bound, lows[attribute] - margin)
            highs[attribute] = min(domain.upper_bound, highs[attribute] + margin)
        lows[0] = math.floor(lows[0])
        highs[0] = math.ceil(highs[0])
        # a slab stretched over all of s would cover it alone
        if len(slabs) > 1 and lows[0] <= subscription.lows[0] and highs[0] >= subscription.highs[0]:
            lows[0] = slab.lows[0]
            highs[0] = slab.highs[0]
        covering.append(Subscription(schema, lows, highs))

    shared_side_is_lower = rng.random(schema.m) < 0.5
    redundant = []
    for _ in range(k - len(covering)):
        if schema.m > 1 and rng.random() < one_sided_fraction:
            sides = shared_side_is_lower
            if rng.random() < contrarian_probability:
                sides = ~shared_side_is_lower
            candidate = ref_one_sided_partial_cover(subscription, sides, rng)
        else:
            candidate = ref_random_subscription_intersecting(
                subscription, rng, cover_probability=0.5
            )
            candidate = ref_avoid_full_cover(candidate, subscription, rng)
        redundant.append(candidate)
    return ScenarioInstance(
        subscription=subscription,
        candidates=covering + redundant,
        expected_covered=True,
        redundant_ids=tuple(c.id for c in redundant),
        metadata={
            "scenario": "redundant_covering",
            "covering_count": len(covering),
            "redundant_count": len(redundant),
        },
    )


def ref_one_sided_partial_cover(reference, shared_side_is_lower, rng):
    schema = reference.schema
    attribute = int(rng.integers(1, schema.m))
    domain = schema.domain(attribute)
    interval = reference.interval(attribute)
    span = interval.high - interval.low
    cut = float(round(interval.low + span * float(rng.uniform(0.2, 0.8))))
    lows = reference.lows.copy()
    highs = reference.highs.copy()
    for other in range(schema.m):
        if other == attribute:
            continue
        other_domain = schema.domain(other)
        extent = other_domain.upper_bound - other_domain.lower_bound
        margin = extent * float(rng.uniform(0.0, 0.02))
        lows[other] = max(other_domain.lower_bound, lows[other] - margin)
        highs[other] = min(other_domain.upper_bound, highs[other] + margin)
    if shared_side_is_lower[attribute]:
        highs[attribute] = min(cut, interval.high - 1.0)
        lows[attribute] = max(domain.lower_bound, interval.low - span * 0.02)
    else:
        lows[attribute] = max(cut, interval.low + 1.0)
        highs[attribute] = min(domain.upper_bound, interval.high + span * 0.02)
    lows[attribute] = math.floor(lows[attribute])
    highs[attribute] = math.ceil(highs[attribute])
    if lows[attribute] > highs[attribute]:
        lows[attribute] = highs[attribute]
    return Subscription(schema, lows, highs)


def ref_no_intersection(schema, k, rng):
    subscription = ref_base_subscription(schema, rng)
    candidates = []
    for _ in range(k):
        candidate = ref_random_subscription_intersecting(subscription, rng)
        attribute = int(rng.integers(0, schema.m))
        candidates.append(ref_push_outside(candidate, subscription, attribute, rng))
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=False,
        redundant_ids=tuple(c.id for c in candidates),
        metadata={"scenario": "no_intersection"},
    )


def ref_push_outside(candidate, reference, attribute, rng):
    schema = reference.schema
    domain = schema.domain(attribute)
    ref = reference.interval(attribute)
    tick = 1.0
    room_below = ref.low - domain.lower_bound
    room_above = domain.upper_bound - ref.high
    lows = candidate.lows.copy()
    highs = candidate.highs.copy()
    if room_below >= room_above and room_below > tick:
        high = ref.low - tick
        low = max(domain.lower_bound, high - room_below * float(rng.uniform(0.2, 0.8)))
    elif room_above > tick:
        low = ref.high + tick
        high = min(domain.upper_bound, low + room_above * float(rng.uniform(0.2, 0.8)))
    elif room_below >= tick:
        low = domain.lower_bound
        high = ref.low - tick
    else:
        low = ref.high + tick
        high = domain.upper_bound
    low = math.ceil(low)
    high = math.floor(high)
    low = min(max(low, domain.lower_bound), domain.upper_bound)
    high = min(max(high, low), domain.upper_bound)
    lows[attribute] = low
    highs[attribute] = high
    return Subscription(schema, lows, highs)


def ref_non_cover(schema, k, rng, gap_fraction=None, cover_probability=0.7):
    subscription = ref_base_subscription(schema, rng)
    fraction = float(rng.uniform(0.05, 0.2)) if gap_fraction is None else gap_fraction
    gap_low, gap_high = ref_carve_gap(subscription, fraction, rng)
    candidates = []
    for _ in range(k):
        candidate = ref_random_subscription_intersecting(
            subscription, rng, cover_probability=cover_probability
        )
        candidate = ref_avoid_gap(candidate, subscription, gap_low, gap_high, rng)
        candidates.append(ref_avoid_full_cover(candidate, subscription, rng))
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=False,
        redundant_ids=tuple(c.id for c in candidates),
        metadata={
            "scenario": "non_cover",
            "gap_fraction": fraction,
            "gap": (gap_low, gap_high),
        },
    )


def ref_carve_gap(subscription, fraction, rng):
    interval = subscription.interval(0)
    span = interval.high - interval.low
    width = max(span * fraction, 1.0)
    margin = max(span * 0.05, 1.0)
    start_low = interval.low + margin
    start_high = max(interval.high - margin - width, start_low)
    gap_low = float(rng.uniform(start_low, start_high))
    gap_high = gap_low + width
    gap_low = math.floor(gap_low)
    gap_high = math.ceil(gap_high)
    gap_high = max(gap_high, gap_low)
    gap_high = min(gap_high, interval.high - 1.0)
    gap_low = max(gap_low, interval.low + 1.0)
    if gap_low > gap_high:
        gap_low = gap_high
    return gap_low, gap_high


def ref_avoid_gap(candidate, reference, gap_low, gap_high, rng):
    schema = reference.schema
    domain = schema.domain(0)
    ref = reference.interval(0)
    tick = 1.0
    lows = candidate.lows.copy()
    highs = candidate.highs.copy()
    left_room = gap_low - tick >= ref.low
    right_room = gap_high + tick <= ref.high
    if left_room and (not right_room or rng.random() < 0.5):
        low = min(lows[0], ref.low)
        high = gap_low - tick
        low = min(low, high)
    else:
        low = gap_high + tick
        high = max(highs[0], ref.high)
        high = max(high, low)
    low = math.floor(low)
    high = math.ceil(high)
    low = max(low, domain.lower_bound)
    high = min(high, domain.upper_bound)
    if low > high:
        low = high
    lows[0] = low
    highs[0] = high
    return Subscription(schema, lows, highs)


def ref_extreme_non_cover(schema, k, gap_fraction, rng):
    subscription = ref_base_subscription(schema, rng)
    gap_low, gap_high = ref_carve_gap(subscription, gap_fraction, rng)
    tick = 1.0
    ref0 = subscription.interval(0)

    def wide_on_other_attributes():
        lows = subscription.lows.copy()
        highs = subscription.highs.copy()
        for attribute in range(1, schema.m):
            domain = schema.domain(attribute)
            extent = domain.upper_bound - domain.lower_bound
            margin = extent * float(rng.uniform(0.0, 0.02))
            lows[attribute] = max(domain.lower_bound, lows[attribute] - margin)
            highs[attribute] = min(domain.upper_bound, highs[attribute] + margin)
        return lows, highs

    def tile_region(region_low, region_high, pieces):
        if region_low > region_high or pieces < 1:
            return []
        total = int(region_high - region_low) + 1
        pieces = max(1, min(pieces, total))
        base, extra = divmod(total, pieces)
        tiles = []
        low = region_low
        for index in range(pieces):
            size = base + (1 if index < extra else 0)
            high = low + size - 1
            tiles.append((low, high))
            low = high + 1
        overlapped = []
        span = region_high - region_low
        for low, high in tiles:
            stretch = span * float(rng.uniform(0.0, 0.02))
            new_low = max(region_low, low - stretch)
            new_high = min(region_high, high + stretch)
            new_low = math.floor(new_low)
            new_high = math.ceil(new_high)
            new_low = max(new_low, region_low)
            new_high = min(new_high, region_high)
            overlapped.append((new_low, new_high))
        return overlapped

    left_low, left_high = ref0.low, gap_low - tick
    right_low, right_high = gap_high + tick, ref0.high
    left_high = math.floor(left_high)
    right_low = math.ceil(right_low)
    n_left = k // 2
    tiles = tile_region(left_low, left_high, n_left) + tile_region(
        right_low, right_high, k - n_left
    )
    candidates = []
    for low, high in tiles:
        lows, highs = wide_on_other_attributes()
        lows[0] = low
        highs[0] = max(high, low)
        candidates.append(Subscription(schema, lows, highs))
    while len(candidates) < k and tiles:
        low, high = tiles[int(rng.integers(0, len(tiles)))]
        lows, highs = wide_on_other_attributes()
        lows[0] = low
        highs[0] = max(high, low)
        candidates.append(Subscription(schema, lows, highs))
    positions = rng.permutation(len(candidates))
    candidates = [candidates[i] for i in positions]
    return ScenarioInstance(
        subscription=subscription,
        candidates=candidates,
        expected_covered=False,
        redundant_ids=tuple(c.id for c in candidates),
        metadata={
            "scenario": "extreme_non_cover",
            "gap_fraction": gap_fraction,
            "gap": (gap_low, gap_high),
        },
    )


REFERENCE = {
    "pairwise_covering": lambda schema, k, rng, **kw: ref_pairwise_covering(schema, k, rng),
    "redundant_covering": lambda schema, k, rng, **kw: ref_redundant_covering(
        schema, k, rng, **kw
    ),
    "no_intersection": lambda schema, k, rng, **kw: ref_no_intersection(schema, k, rng),
    "non_cover": lambda schema, k, rng, **kw: ref_non_cover(schema, k, rng, **kw),
    "extreme_non_cover": lambda schema, k, rng, **kw: ref_extreme_non_cover(
        schema, k, kw["gap_fraction"], rng
    ),
}

#: smallest k each family accepts
MIN_K = {"redundant_covering": 2, "extreme_non_cover": 4}


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------
def make_schema(kind: str, size: float = 10_000, m: int = 6) -> Schema:
    if kind == "integer":
        return Schema.uniform_integer(m, 0, int(size))
    if kind == "signed":
        # negative lower bounds and a different extent on every attribute
        return Schema(
            [(f"x{j}", IntegerDomain(-int(size) // 2, int(size) // 2 + j)) for j in range(m)]
        )
    if kind == "typed":
        # every domain class, the timestamp ticks far from zero
        domains = (
            lambda: IntegerDomain(0, int(size)),
            lambda: TimestampDomain(1_700_000_000, 1_700_000_000 + int(size)),
            lambda: CategoricalDomain(range(int(size) + 1)),
        )
        return Schema([(f"x{j}", domains[j % 3]()) for j in range(m)])
    if kind == "one-attribute":
        return Schema.uniform_integer(1, 0, int(size))
    if kind == "one-signed":
        return Schema([("x", IntegerDomain(-int(size), 0))])
    if kind == "degenerate":
        # a point domain first: zero widths (no offset draw), a gap clip
        # that lands on s, and the cover clip firing inside a block
        return Schema(
            [
                ("p", IntegerDomain(1, 1)),
                ("q", IntegerDomain(0, 30)),
                ("r", IntegerDomain(0, 10)),
                ("t", IntegerDomain(5, 5)),
            ]
        )
    raise ValueError(kind)


def rows(instance: ScenarioInstance) -> Tuple[np.ndarray, np.ndarray]:
    schema = instance.subscription.schema
    lows = np.array([c.lows for c in instance.candidates]).reshape(-1, schema.m)
    highs = np.array([c.highs for c in instance.candidates]).reshape(-1, schema.m)
    return lows, highs


def redundant_positions(instance: ScenarioInstance) -> Tuple[int, ...]:
    ids = [c.id for c in instance.candidates]
    return tuple(ids.index(identifier) for identifier in instance.redundant_ids)


def assert_same_instance(instance: ScenarioInstance, reference: ScenarioInstance) -> None:
    assert instance.subscription.lows.tobytes() == reference.subscription.lows.tobytes()
    assert instance.subscription.highs.tobytes() == reference.subscription.highs.tobytes()
    assert instance.k == reference.k
    lows, highs = rows(instance)
    reference_lows, reference_highs = rows(reference)
    assert lows.tobytes() == reference_lows.tobytes()
    assert highs.tobytes() == reference_highs.tobytes()
    assert instance.expected_covered == reference.expected_covered
    assert redundant_positions(instance) == redundant_positions(reference)
    assert instance.metadata == reference.metadata


def assert_same_generation(family, schema, k, bit_generator, seed, **kwargs):
    """The family and its reference build the same instance and leave the
    generator in the same state — or reject the input with the same error."""
    rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in rngs:
        # leaves half a 64-bit word in the generator's 32-bit buffer
        rng.integers(0, 10, dtype=np.uint32)
    try:
        reference = REFERENCE[family](schema, k, rngs[1], **kwargs)
    except ValidationError as error:
        with pytest.raises(ValidationError) as raised:
            generate_scenario(family, schema, k, rngs[0], **kwargs)
        assert str(raised.value) == str(error)
        return
    instance = generate_scenario(family, schema, k, rngs[0], **kwargs)
    assert_same_instance(instance, reference)
    assert states_equal(rngs[0].bit_generator.state, rngs[1].bit_generator.state)


# ----------------------------------------------------------------------
# Stream identity
# ----------------------------------------------------------------------
SCHEMA_KINDS = ("integer", "signed", "typed", "one-attribute")
FAMILY_KWARGS = {
    "extreme_non_cover": {"gap_fraction": 0.02},
}


class TestStreamIdentity:
    """Every family, against the scalar reference: bounds byte for byte,
    the answer, the redundant positions, the metadata and the bit
    generator's state afterwards."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("k", (1, 2, 4, 20, 200))
    @pytest.mark.parametrize("kind", SCHEMA_KINDS)
    @pytest.mark.parametrize("family", [name.value for name in ScenarioName])
    def test_family_matches_reference(self, family, kind, k, bit_generator):
        if k < MIN_K.get(family, 1):
            pytest.skip("k below the family's minimum")
        schema = make_schema(kind, m=6 if k < 200 else 15)
        for seed in range(1 if k == 200 else 4):
            assert_same_generation(
                family, schema, k, bit_generator, 1000 + seed, **FAMILY_KWARGS.get(family, {})
            )

    @pytest.mark.parametrize(
        "family, kwargs",
        [
            ("redundant_covering", {"one_sided_fraction": 0.5, "contrarian_probability": 0.5}),
            ("redundant_covering", {"one_sided_fraction": 0.0}),
            ("redundant_covering", {"covering_fraction": 0.5, "slab_overlap_fraction": 0.3}),
            ("non_cover", {"gap_fraction": 0.1}),
            ("non_cover", {"cover_probability": 0.0}),
            ("non_cover", {"cover_probability": 1.0}),
            ("extreme_non_cover", {"gap_fraction": 0.3}),
        ],
    )
    @pytest.mark.parametrize("kind", SCHEMA_KINDS + ("degenerate", "one-signed"))
    @pytest.mark.parametrize("size", (10, 30, 10_000))
    def test_parameters_and_small_domains(self, family, kwargs, kind, size):
        schema = make_schema(kind, size=size, m=3)
        for seed in range(6):
            assert_same_generation(family, schema, 12, np.random.PCG64, seed, **kwargs)

    @pytest.mark.parametrize("family", [name.value for name in ScenarioName])
    @pytest.mark.parametrize("size", (10, 30))
    def test_degenerate_schema(self, family, size):
        schema = make_schema("degenerate", size=size)
        for seed in range(8):
            assert_same_generation(
                family, schema, 9, np.random.SFC64, seed, **FAMILY_KWARGS.get(family, {})
            )

    def test_rare_paths_are_reached(self, monkeypatch):
        """The degenerate sweep above passes through the draw-count
        branches: a zero width skipping its offset, and the cover clip
        firing mid-block in ``non_cover`` (which walks the block again
        from after it)."""
        seen = {"walks": 0, "zero_widths": 0, "clips": 0}
        walk, clip = scenarios._walk_intersecting, scenarios._avoid_full_cover

        def counting_walk(*args, **kwargs):
            positions, ends = walk(*args, **kwargs)
            seen["walks"] += 1
            seen["zero_widths"] += int(
                np.sum((positions[..., 1] >= 0) & (positions[..., 3] < 0))
            )
            return positions, ends

        def counting_clip(*args):
            seen["clips"] += 1
            return clip(*args)

        monkeypatch.setattr(scenarios, "_walk_intersecting", counting_walk)
        monkeypatch.setattr(scenarios, "_avoid_full_cover", counting_clip)
        schema = make_schema("degenerate")
        for seed in range(8):
            generate_scenario("non_cover", schema, 9, np.random.Generator(np.random.SFC64(seed)))
        assert seen["zero_widths"] > 0
        assert seen["clips"] > 0
        assert seen["walks"] > 8  # some block was walked again after a clip

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_instances_in_sequence_share_one_stream(self, bit_generator):
        schema = make_schema("integer")
        rngs = [np.random.Generator(bit_generator(7)) for _ in range(2)]
        for family in ScenarioName:
            kwargs = FAMILY_KWARGS.get(family.value, {})
            for _ in range(2):
                instance = generate_scenario(family, schema, 12, rngs[0], **kwargs)
                reference = REFERENCE[family.value](schema, 12, rngs[1], **kwargs)
                assert_same_instance(instance, reference)
        assert states_equal(rngs[0].bit_generator.state, rngs[1].bit_generator.state)


class TestGeneratorIdentity:
    """The building blocks of :mod:`repro.workloads.generators`."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("kind", SCHEMA_KINDS + ("degenerate",))
    def test_random_boxes(self, kind, bit_generator):
        schema = make_schema(kind, size=30)
        rng, reference_rng = (np.random.Generator(bit_generator(3)) for _ in range(2))
        for width in ((0.05, 0.3), (0.0, 1.0), (0.5, 0.5)):
            for _ in range(20):
                box = random_subscription(schema, rng, width_fraction=width)
                expected = ref_random_subscription(schema, reference_rng, width)
                assert box.lows.tobytes() == expected.lows.tobytes()
                assert box.highs.tobytes() == expected.highs.tobytes()
                for probability in (0.0, 0.3, 1.0):
                    other = random_subscription_intersecting(box, rng, width, probability)
                    other_expected = ref_random_subscription_intersecting(
                        expected, reference_rng, width, probability
                    )
                    assert other.lows.tobytes() == other_expected.lows.tobytes()
                    assert other.highs.tobytes() == other_expected.highs.tobytes()
        assert states_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

    def test_zero_width_fraction_skips_the_offset_draw(self):
        schema = make_schema("integer", size=30)
        reference = Subscription(schema, [5.0] * schema.m, [9.0] * schema.m)
        rng, reference_rng = np.random.default_rng(0), np.random.default_rng(0)
        for _ in range(10):
            box = random_subscription_intersecting(reference, rng, (0.0, 0.0))
            expected = ref_random_subscription_intersecting(reference, reference_rng, (0.0, 0.0))
            assert box.same_box(expected)
        assert states_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

    @pytest.mark.parametrize("kind", ("integer", "signed", "typed", "degenerate"))
    def test_random_interval(self, kind):
        schema = make_schema(kind, size=30)
        rng, reference_rng = np.random.default_rng(4), np.random.default_rng(4)
        for domain in schema.domains:
            for _ in range(20):
                assert random_interval(domain, rng) == ref_random_interval(domain, reference_rng)
        assert states_equal(rng.bit_generator.state, reference_rng.bit_generator.state)

    @pytest.mark.parametrize("kind", ("integer", "signed", "typed", "degenerate"))
    @pytest.mark.parametrize("count", (1, 2, 3, 7, 40))
    def test_slabs_and_expansion(self, kind, count):
        schema = make_schema(kind, size=30)
        rng = np.random.default_rng(count)
        for _ in range(10):
            box = random_subscription(schema, rng, width_fraction=(0.2, 0.9))
            for attribute in range(schema.m):
                slabs = slab_partition(box, count, attribute)
                expected = ref_slab_partition(box, count, attribute)
                assert len(slabs) == len(expected)
                for slab, other in zip(slabs, expected):
                    assert slab.lows.tobytes() == other.lows.tobytes()
                    assert slab.highs.tobytes() == other.highs.tobytes()
            for fraction in (0.0, 0.05, 0.7):
                bigger = expand_to_cover(box, fraction)
                expected = ref_expand_to_cover(box, fraction)
                assert bigger.lows.tobytes() == expected.lows.tobytes()
                assert bigger.highs.tobytes() == expected.highs.tobytes()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("kind", ("integer", "signed", "typed", "degenerate"))
    def test_shrink_inside(self, kind, bit_generator):
        schema = make_schema(kind, size=20)
        rng, reference_rng = (np.random.Generator(bit_generator(5)) for _ in range(2))
        for _ in range(50):
            box = random_subscription(schema, rng, width_fraction=(0.0, 0.3))
            expected_box = ref_random_subscription(schema, reference_rng, (0.0, 0.3))
            smaller = shrink_inside(box, rng)
            expected = ref_shrink_inside(expected_box, reference_rng)
            assert smaller.lows.tobytes() == expected.lows.tobytes()
            assert smaller.highs.tobytes() == expected.highs.tobytes()
        assert states_equal(rng.bit_generator.state, reference_rng.bit_generator.state)


# ----------------------------------------------------------------------
# Subscription.from_matrix
# ----------------------------------------------------------------------
class TestFromMatrix:
    @pytest.fixture
    def schema(self):
        return make_schema("integer", size=100, m=3)

    def test_equals_the_scalar_constructor(self, schema):
        lows = np.array([[0.0, 1.5, 3.0], [-5.0, 0.0, 2.0], [10.0, 20.0, 30.0]])
        highs = np.array([[4.0, 2.5, 3.0], [200.0, 150.0, 2.0], [10.0, 20.5, 31.0]])
        built = Subscription.from_matrix(schema, lows, highs)
        for subscription, low, high in zip(built, lows, highs):
            scalar = Subscription(schema, low, high)
            assert subscription.lows.tobytes() == scalar.lows.tobytes()
            assert subscription.highs.tobytes() == scalar.highs.tobytes()
            assert not subscription.lows.flags.writeable
            assert not subscription.highs.flags.writeable
            assert subscription.subscriber is None and subscription.metadata == {}
            assert subscription.size() == scalar.size()
        # one copy, row views of it; the caller's arrays are untouched
        assert built[0].lows.base is built[1].lows.base
        assert not np.shares_memory(built[0].lows, lows)
        lows[0, 0] = 99.0
        assert built[0].lows[0] == 0.0

    def test_identifiers_are_minted_in_row_order(self, schema):
        first = Subscription(schema, [0.0] * 3, [1.0] * 3)
        built = Subscription.from_matrix(schema, np.zeros((4, 3)), np.ones((4, 3)))
        after = Subscription(schema, [0.0] * 3, [1.0] * 3)
        numbers = [int(s.id.split("-")[1]) for s in [first, *built, after]]
        assert numbers == list(range(numbers[0], numbers[0] + 6))

    def test_empty_matrix(self, schema):
        assert Subscription.from_matrix(schema, np.zeros((0, 3)), np.zeros((0, 3))) == []

    @pytest.mark.parametrize(
        "low, high",
        [
            ([5.0, 0.0, 0.0], [4.0, 1.0, 1.0]),  # empty on x0
            ([0.0, 3.0, 2.0], [1.0, 2.0, 1.0]),  # empty on x1 and x2
            ([101.0, 0.0, 0.0], [150.0, 1.0, 1.0]),  # outside the domain on x0
            ([0.0, -9.0, 101.0], [1.0, -1.0, 120.0]),  # outside on x1 and x2
        ],
    )
    def test_same_validation_error_naming_the_first_bad_row(self, schema, low, high):
        with pytest.raises(ValidationError) as scalar:
            Subscription(schema, low, high)
        good_low, good_high = [0.0] * 3, [1.0] * 3
        with pytest.raises(ValidationError) as bulk:
            Subscription.from_matrix(
                schema, [good_low, low, good_low, [7.0, 7.0, 7.0]], [good_high, high, good_high, [6.0, 6.0, 6.0]]
            )
        assert str(bulk.value) == str(scalar.value)

    def test_wrong_arity_matches_the_scalar_message(self, schema):
        with pytest.raises(ValidationError) as scalar:
            Subscription(schema, [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError) as bulk:
            Subscription.from_matrix(schema, [[0.0, 0.0]], [[1.0, 1.0]])
        assert str(bulk.value) == str(scalar.value)

    @pytest.mark.parametrize(
        "lows, highs",
        [(np.zeros(3), np.ones(3)), (np.zeros((2, 3)), np.ones((3, 3))), (np.zeros((1, 1, 3)), np.ones((1, 1, 3)))],
    )
    def test_rejects_anything_but_two_matrices(self, schema, lows, highs):
        with pytest.raises(ValidationError, match="matrices"):
            Subscription.from_matrix(schema, lows, highs)

    def test_nan_passes_like_the_scalar_constructor(self, schema):
        low = [np.nan, 0.0, 0.0]
        high = [1.0, 1.0, 1.0]
        scalar = Subscription(schema, low, high)
        (bulk,) = Subscription.from_matrix(schema, [low], [high])
        assert np.array_equal(bulk.lows, scalar.lows, equal_nan=True)


# ----------------------------------------------------------------------
# Generator calls per candidate
# ----------------------------------------------------------------------
class CountingGenerator(np.random.Generator):
    """A generator that counts every drawing call (all instances)."""

    calls = 0

    def random(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().permutation(*args, **kwargs)


class TestCallCounts:
    """At most four generator calls per candidate, at any m.  Checked
    against the mutation it names: drawing the one-sided margins of
    ``redundant_covering`` with one ``uniform`` per attribute (or bringing
    back any per-attribute draw) puts a family over ``4 k``."""

    @pytest.mark.parametrize("family", [name.value for name in ScenarioName])
    def test_at_most_four_calls_per_candidate(self, family):
        schema = make_schema("integer", m=15)
        for k in (20, 200):
            CountingGenerator.calls = 0
            rng = CountingGenerator(np.random.PCG64(11))
            instance = generate_scenario(family, schema, k, rng, **FAMILY_KWARGS.get(family, {}))
            assert instance.k == k
            assert CountingGenerator.calls <= 4 * k, CountingGenerator.calls

    def test_a_whole_run_is_one_call(self):
        schema = make_schema("integer", m=15)
        CountingGenerator.calls = 0
        rng = CountingGenerator(np.random.PCG64(11))
        generate_scenario("pairwise_covering", schema, 200, rng)
        # s, the 199 intersecting candidates, the permutation
        assert CountingGenerator.calls == 3


# ----------------------------------------------------------------------
# The two bugfixes
# ----------------------------------------------------------------------
class TestAvoidFullCover:
    def test_cut_end_lies_a_tick_inside(self):
        """Reference ``[10, 12]^3`` and coverer ``[0, 50]^3``: the cut end
        rounded outwards used to land back on the reference's bound (139
        of 200 seeds still covered it)."""
        schema = Schema.uniform_integer(3, 0, 100)
        reference = Subscription(schema, [10.0] * 3, [12.0] * 3)
        still_covering = 0
        for seed in range(200):
            lows, highs = np.full(3, 0.0), np.full(3, 50.0)
            attribute = scenarios._shrink_attribute(reference.lows, reference.highs)
            draws = np.random.default_rng(seed).random(2)
            scenarios._avoid_full_cover(
                lows, highs, reference.lows, reference.highs, attribute, draws
            )
            candidate = Subscription(schema, lows, highs)
            expected = ref_avoid_full_cover(
                Subscription(schema, [0.0] * 3, [50.0] * 3), reference, np.random.default_rng(seed)
            )
            assert candidate.same_box(expected)
            still_covering += candidate.covers(reference)
            assert not exact_group_cover(reference, [candidate])
            assert np.all(candidate.lows <= reference.highs) and np.all(
                reference.lows <= candidate.highs
            )
        assert still_covering == 0


class TestShrinkInside:
    def test_never_equals_a_box_of_more_than_one_tick(self):
        """``uniform_integer(3, 0, 20)``, seed 0, widths 0.05-0.2: the box
        rounded outwards came back unchanged 773 times in 2 000."""
        schema = Schema.uniform_integer(3, 0, 20)
        rng = np.random.default_rng(0)
        for _ in range(2_000):
            box = random_subscription(schema, rng, width_fraction=(0.05, 0.2))
            smaller = shrink_inside(box, rng)
            assert box.covers(smaller)
            assert not smaller.same_box(box)
            assert smaller.size() < box.size()

    def test_a_single_point_comes_back_unchanged_without_drawing(self):
        schema = Schema([("a", IntegerDomain(0, 9)), ("b", IntegerDomain(0, 1))])
        point = Subscription(schema, [3.0, 0.5], [3.0, 0.5])
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        assert shrink_inside(point, rng).same_box(point)
        assert states_equal(rng.bit_generator.state, before)


# ----------------------------------------------------------------------
# Per-family validation
# ----------------------------------------------------------------------
class TestValidateInstance:
    @pytest.mark.parametrize("m", (1, 3))
    @pytest.mark.parametrize("kind", ("integer", "signed", "typed"))
    @pytest.mark.parametrize("size", (10, 30, 10_000))
    def test_every_family_has_its_claimed_properties(self, size, kind, m):
        schema = make_schema(kind, size=size, m=m)
        rng = np.random.default_rng(size + m)
        for family in ScenarioName:
            kwargs = {"gap_fraction": 0.03} if family is ScenarioName.EXTREME_NON_COVER else {}
            for _ in range(12):
                result = validate_instance(generate_scenario(family, schema, 12, rng, **kwargs))
                assert result.ok, (family.value, result.failed)
                assert result.scenario == family.value

    def test_redundant_slabs_never_cover_alone_on_a_ten_value_domain(self):
        """On ``uniform_integer(3, 0, 10)`` the slab overlap, rounded
        outwards, can stretch a slab over all of ``s`` (1 of these 60
        instances, were such a slab kept)."""
        schema = Schema.uniform_integer(3, 0, 10)
        rng = np.random.default_rng(4)
        for _ in range(60):
            instance = generate_scenario("redundant_covering", schema, 12, rng)
            assert validate_instance(instance).checks["no_pairwise_cover"]

    def test_checks_named_per_family(self):
        schema = make_schema("integer", m=3)
        rng = np.random.default_rng(0)
        names = {
            family.value: set(
                validate_instance(
                    generate_scenario(
                        family, schema, 8, rng,
                        **({"gap_fraction": 0.05} if family is ScenarioName.EXTREME_NON_COVER else {}),
                    )
                ).checks
            )
            for family in ScenarioName
        }
        assert names == {
            "pairwise_covering": {"expected_covered", "pairwise_cover", "candidates_meet_s"},
            "redundant_covering": {
                "expected_covered", "no_pairwise_cover", "candidates_meet_s", "covering_group_covers",
            },
            "no_intersection": {"expected_covered", "no_candidate_meets_s"},
            "non_cover": {"expected_covered", "no_pairwise_cover", "candidates_meet_s", "gap_clear"},
            "extreme_non_cover": {
                "expected_covered", "no_pairwise_cover", "candidates_meet_s", "gap_clear",
            },
        }

    def test_detects_each_broken_property(self):
        schema = make_schema("integer", m=3)
        rng = np.random.default_rng(2)

        def s_box(instance):
            return Subscription(schema, instance.subscription.lows, instance.subscription.highs)

        redundant = generate_scenario("redundant_covering", schema, 12, rng)
        assert validate_instance(redundant).ok
        broken = validate_instance(replace(redundant, candidates=redundant.candidates + [s_box(redundant)]))
        assert broken.failed == ("no_pairwise_cover",)
        only_redundant = [c for c in redundant.candidates if c.id in set(redundant.redundant_ids)]
        broken = validate_instance(replace(redundant, candidates=only_redundant))
        assert "covering_group_covers" in broken.failed

        pairwise = generate_scenario("pairwise_covering", schema, 12, rng)
        broken = validate_instance(replace(pairwise, expected_covered=False))
        assert broken.failed == ("expected_covered",)
        without = [c for c in pairwise.candidates if c.id in set(pairwise.redundant_ids)]
        assert "pairwise_cover" in validate_instance(replace(pairwise, candidates=without)).failed

        apart = generate_scenario("no_intersection", schema, 12, rng)
        broken = validate_instance(replace(apart, candidates=apart.candidates + [s_box(apart)]))
        assert set(broken.failed) == {"no_candidate_meets_s", "expected_covered"}

        gapped = generate_scenario("non_cover", schema, 12, rng)
        gap_low, gap_high = gapped.metadata["gap"]
        s = gapped.subscription
        into_gap = Subscription(
            schema, [gap_low, s.lows[1], s.lows[2]], [gap_high, s.lows[1], s.lows[2]]
        )
        broken = validate_instance(replace(gapped, candidates=gapped.candidates + [into_gap]))
        assert broken.failed == ("gap_clear",)
        outside = Subscription(schema, [0.0] * 3, [0.0] * 3)
        if np.any(outside.highs < s.lows) or np.any(s.highs < outside.lows):
            broken = validate_instance(replace(gapped, candidates=gapped.candidates + [outside]))
            assert broken.failed == ("candidates_meet_s",)
        assert isinstance(broken, ValidationResult) and not broken.ok

    def test_pairwise_and_meeting_agree_with_the_exact_oracle(self):
        """The per-candidate relations read the points each box holds, as
        :func:`exact_group_cover` does, fractional bounds included."""
        schema = Schema([("a", IntegerDomain(0, 20)), ("b", IntegerDomain(0, 20)), ("c", IntegerDomain(0, 20))])
        rng = np.random.default_rng(9)
        s = Subscription(schema, [4.0, 4.0, 4.0], [9.0, 9.0, 9.0])
        for _ in range(400):
            low = rng.uniform(0, 12, 3).round(1)
            box = Subscription(schema, low, low + rng.uniform(0, 9, 3).round(1))
            instance = ScenarioInstance(
                subscription=s,
                candidates=[box],
                expected_covered=exact_group_cover(s, [box]),
                metadata={"scenario": "pairwise_covering"},
            )
            checks = validate_instance(instance).checks
            assert checks["pairwise_cover"] == exact_group_cover(s, [box])
            region = (np.maximum(s.lows, box.lows), np.minimum(s.highs, box.highs))
            holds_point = all(
                math.ceil(region[0][j]) <= math.floor(region[1][j]) for j in range(3)
            )
            assert checks["candidates_meet_s"] == holds_point
