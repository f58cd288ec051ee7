"""Unit tests for :mod:`repro.core.witness`."""

import numpy as np
import pytest

from repro.core.conflict_table import ConflictTable
from repro.core.witness import (
    compute_point_witness_probability,
    estimate_smallest_witness,
    find_point_witness,
    find_polyhedron_witness_greedy,
    point_is_witness,
    witness_box_from_entries,
)
from repro.model import Schema, Subscription


class TestPointWitness:
    def test_point_is_witness(self, table6_subscription, table6_candidates):
        # x1 = 880 lies inside s but outside both candidates (the gap region).
        assert point_is_witness(np.array([880.0, 1004.0]), table6_candidates)
        assert not point_is_witness(np.array([845.0, 1004.0]), table6_candidates)

    def test_point_is_witness_empty_set(self):
        assert point_is_witness(np.array([1.0, 2.0]), [])

    def test_find_point_witness_in_noncover_example(
        self, table6_subscription, table6_candidates, rng
    ):
        witness, trials = find_point_witness(
            table6_subscription, table6_candidates, rng, max_trials=1000
        )
        assert witness is not None
        assert trials <= 1000
        assert table6_subscription.contains_point(witness)
        assert point_is_witness(witness, table6_candidates)

    def test_find_point_witness_fails_when_covered(
        self, table3_subscription, table3_candidates, rng
    ):
        witness, trials = find_point_witness(
            table3_subscription, table3_candidates, rng, max_trials=200
        )
        assert witness is None
        assert trials == 200


class TestPolyhedronWitness:
    def test_greedy_witness_for_noncover_example(
        self, table6_subscription, table6_candidates
    ):
        table = ConflictTable(table6_subscription, table6_candidates)
        entries = find_polyhedron_witness_greedy(table)
        assert entries is not None
        assert len(entries) == table.k
        box = witness_box_from_entries(table, entries)
        assert box is not None
        # The witness box is contained in s and disjoint from every candidate.
        assert table6_subscription.covers(box)
        assert all(
            np.any(c.lows > box.highs) or np.any(box.lows > c.highs)
            for c in table6_candidates
        )

    def test_greedy_witness_absent_when_covered(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        assert find_polyhedron_witness_greedy(table) is None

    def test_greedy_witness_empty_candidate_set(self, table3_subscription):
        table = ConflictTable(table3_subscription, [])
        assert find_polyhedron_witness_greedy(table) == []

    def test_witness_box_of_conflicting_entries_is_none(
        self, table3_subscription, table3_candidates
    ):
        from repro.core.conflict_table import EntryRef, EntrySide

        table = ConflictTable(table3_subscription, table3_candidates)
        entries = [EntryRef(0, 0, EntrySide.HIGH), EntryRef(1, 0, EntrySide.LOW)]
        assert witness_box_from_entries(table, entries) is None


class TestRhoWEstimation:
    def test_estimate_for_paper_example(self, table3_subscription, table3_candidates):
        table = ConflictTable(table3_subscription, table3_candidates)
        estimate = estimate_smallest_witness(table)
        # I(s) = 41 * 4 = 164; the per-attribute minimum gaps are 10 and 4.
        assert estimate.subscription_size == 164.0
        assert estimate.witness_size == 40.0
        assert estimate.rho_w == pytest.approx(40.0 / 164.0)
        assert estimate.per_attribute_gaps == (10.0, 4.0)

    def test_estimate_with_no_candidates_gives_one(self, table3_subscription):
        table = ConflictTable(table3_subscription, [])
        assert estimate_smallest_witness(table).rho_w == 1.0

    def test_rho_w_bounded_by_one(self, schema_small, rng):
        s = Subscription.from_constraints(schema_small, {"x1": (10, 20)})
        far = Subscription.from_constraints(schema_small, {"x1": (500, 600)})
        assert compute_point_witness_probability(s, [far]) <= 1.0

    def test_rho_w_larger_when_less_covered(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 99), "x2": (0, 99)})
        big = Subscription.from_constraints(schema_2d, {"x1": (0, 89), "x2": (0, 99)})
        small = Subscription.from_constraints(schema_2d, {"x1": (0, 9), "x2": (0, 99)})
        assert compute_point_witness_probability(s, [small]) > (
            compute_point_witness_probability(s, [big])
        )

    def test_rho_w_uses_reduced_rows(self, table3_subscription, table7_candidates):
        table = ConflictTable(table3_subscription, table7_candidates)
        full = estimate_smallest_witness(table)
        reduced = estimate_smallest_witness(table, rows=[0, 1])
        # Dropping s3 (which narrows x2) can only increase the witness size.
        assert reduced.witness_size >= full.witness_size
