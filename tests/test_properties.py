"""Property-based tests (hypothesis) for the core invariants.

The strategies generate random integer boxes over a shared small schema so
that the exact oracle stays cheap; the properties cover the geometric data
model, the conflict table, RSPC soundness, the MCS answer-preservation
claim (Proposition 4), Eq. 1 and the pair-wise baseline.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.conflict_table import ConflictTable
from repro.core.decisions import detect_pairwise_cover, detect_polyhedron_witness
from repro.core.error_model import error_probability, required_iterations
from repro.core.exact import exact_group_cover, uncovered_region
from repro.core.mcs import minimized_cover_set
from repro.core.pairwise import PairwiseCoverageChecker
from repro.core.rspc import run_rspc
from repro.core.subsumption import SubsumptionChecker
from repro.core.witness import estimate_smallest_witness
from repro.model import Interval, Schema, Subscription

#: a small shared schema keeps the exact oracle fast
SCHEMA = Schema.uniform_integer(3, 0, 60)

_settings = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def boxes(draw):
    """A random non-empty integer box over ``SCHEMA``."""
    lows = []
    highs = []
    for _ in range(SCHEMA.m):
        low = draw(st.integers(min_value=0, max_value=59))
        width = draw(st.integers(min_value=0, max_value=30))
        lows.append(low)
        highs.append(min(low + width, 60))
    return Subscription(SCHEMA, lows, highs)


@st.composite
def box_sets(draw, min_size=1, max_size=6):
    """A random subscription plus a random candidate set."""
    subscription = draw(boxes())
    candidates = draw(st.lists(boxes(), min_size=min_size, max_size=max_size))
    return subscription, candidates


# ----------------------------------------------------------------------
# Interval / box geometry
# ----------------------------------------------------------------------
def _meet(a, b):
    """The intersection box of ``a`` and ``b``, or ``None`` when empty."""
    lows = np.maximum(a.lows, b.lows)
    highs = np.minimum(a.highs, b.highs)
    if np.any(lows > highs):
        return None
    return Subscription(SCHEMA, lows, highs)


class TestGeometryProperties:
    @_settings
    @given(boxes(), boxes())
    def test_intersection_is_contained_in_both(self, a, b):
        overlap = _meet(a, b)
        if overlap is not None:
            assert a.covers(overlap)
            assert b.covers(overlap)

    @_settings
    @given(boxes(), boxes())
    def test_covers_iff_intersection_equals_smaller(self, a, b):
        overlap = _meet(a, b)
        assert a.covers(b) == (overlap is not None and overlap.same_box(b))

    @_settings
    @given(boxes(), boxes())
    def test_union_hull_covers_both(self, a, b):
        hull = a.union_hull(b)
        assert hull.covers(a) and hull.covers(b)

    @_settings
    @given(boxes())
    def test_sampled_points_lie_inside(self, box):
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert box.contains_point(box.sample_point(rng))

    @_settings
    @given(boxes())
    def test_size_counts_sampled_grid(self, box):
        # size() equals the number of integer points in the box.
        expected = 1
        for j in range(SCHEMA.m):
            interval = box.interval(j)
            expected *= int(interval.high - interval.low) + 1
        assert box.size() == expected

    @_settings
    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    )
    def test_interval_intersection_commutes(self, a_low, a_high, b_low, b_high):
        a = Interval(a_low, a_high)
        b = Interval(b_low, b_high)
        assert a.intersection(b) == b.intersection(a)


# ----------------------------------------------------------------------
# Conflict table
# ----------------------------------------------------------------------
class TestConflictTableProperties:
    @_settings
    @given(box_sets())
    def test_defined_entries_iff_s_sticks_out(self, instance):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        for row, candidate in enumerate(candidates):
            for attribute in range(SCHEMA.m):
                assert table.defined_low[row, attribute] == (
                    subscription.lows[attribute] < candidate.lows[attribute]
                )
                assert table.defined_high[row, attribute] == (
                    subscription.highs[attribute] > candidate.highs[attribute]
                )

    @_settings
    @given(box_sets())
    def test_corollary_one_rows_really_cover(self, instance):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        for row in np.flatnonzero(table.row_defined_counts == 0):
            assert candidates[row].covers(subscription)

    @_settings
    @given(box_sets())
    def test_entry_regions_are_outside_candidate(self, defined_entries, instance):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        for entry in defined_entries(table):
            region = table.entry_region(entry.row, entry.attribute, entry.side)
            assert not region.is_empty
            candidate_interval = candidates[entry.row].interval(entry.attribute)
            assert region.intersection(candidate_interval).is_empty

    @_settings
    @given(box_sets())
    def test_conflict_free_counts_match_bruteforce(
        self, conflict_free_counts, defined_entries, instance
    ):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        counts = conflict_free_counts(table)
        expected = np.zeros(table.k, dtype=int)
        entries = defined_entries(table)
        for entry in entries:
            conflicting = any(
                table.entries_conflict(entry, other)
                for other in entries
                if other.row != entry.row
            )
            if not conflicting:
                expected[entry.row] += 1
        assert counts.tolist() == expected.tolist()


# ----------------------------------------------------------------------
# Fast decisions, MCS, RSPC
# ----------------------------------------------------------------------
class TestAlgorithmProperties:
    @_settings
    @given(box_sets())
    def test_pairwise_fast_decision_sound(self, instance):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        decision = detect_pairwise_cover(table)
        if decision is not None:
            assert candidates[decision.covering_row].covers(subscription)

    @_settings
    @given(box_sets())
    def test_polyhedron_witness_decision_sound(self, instance):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        decision = detect_polyhedron_witness(table)
        if decision is not None:
            assert exact_group_cover(subscription, candidates) is False

    @_settings
    @given(box_sets())
    def test_mcs_preserves_the_answer(self, instance):
        subscription, candidates = instance
        table = ConflictTable(subscription, candidates)
        reduction = minimized_cover_set(table)
        assert exact_group_cover(subscription, candidates) == exact_group_cover(
            subscription, list(reduction.kept)
        )

    @_settings
    @given(box_sets())
    def test_rspc_no_is_always_correct(self, instance):
        subscription, candidates = instance
        estimate = estimate_smallest_witness(ConflictTable(subscription, candidates))
        result = run_rspc(
            subscription,
            candidates,
            rho_w=estimate.rho_w,
            delta=1e-3,
            rng=0,
            max_iterations=200,
        )
        if not result.covered:
            assert exact_group_cover(subscription, candidates) is False
            assert subscription.contains_point(result.witness_point)

    @_settings
    @given(box_sets())
    def test_full_checker_never_rejects_covered_instances(self, instance):
        subscription, candidates = instance
        checker = SubsumptionChecker(delta=1e-4, max_iterations=300, rng=1)
        result = checker.check(subscription, candidates)
        truth = exact_group_cover(subscription, candidates)
        if truth:
            assert result.covered
        if not result.covered:
            assert truth is False

    @_settings
    @given(box_sets())
    def test_pairwise_baseline_weaker_than_group_oracle(self, instance):
        subscription, candidates = instance
        pairwise = PairwiseCoverageChecker.check(subscription, candidates)
        if pairwise.covered:
            assert exact_group_cover(subscription, candidates)

    @_settings
    @given(box_sets())
    def test_uncovered_region_is_disjoint_from_candidates(self, instance):
        subscription, candidates = instance
        for piece in uncovered_region(subscription, candidates):
            assert subscription.covers(piece)
            for candidate in candidates:
                assert np.any(candidate.lows > piece.highs) or np.any(
                    piece.lows > candidate.highs
                )


# ----------------------------------------------------------------------
# Error model (Eq. 1)
# ----------------------------------------------------------------------
class TestErrorModelProperties:
    @_settings
    @given(
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=1e-9, max_value=0.5),
    )
    def test_required_iterations_achieves_delta(self, rho_w, delta):
        d = required_iterations(delta, rho_w)
        assume(math.isfinite(d))
        assert error_probability(rho_w, d) <= delta * (1 + 1e-9)

    @_settings
    @given(
        st.floats(min_value=1e-6, max_value=0.999),
        st.integers(min_value=0, max_value=1000),
    )
    def test_error_probability_in_unit_interval(self, rho_w, iterations):
        value = error_probability(rho_w, iterations)
        assert 0.0 <= value <= 1.0
