"""Unit tests for :mod:`repro.core.conflict_table`."""

import numpy as np
import pytest

from repro.core.conflict_table import ConflictTable, EntryRef, EntrySide
from repro.model import Schema, Subscription
from repro.model.errors import ValidationError


class TestConstruction:
    def test_table_dimensions(self, table3_subscription, table3_candidates):
        table = ConflictTable(table3_subscription, table3_candidates)
        assert table.k == 2
        assert table.m == 2
        assert table.row_defined_counts.tolist() == [1, 1]

    def test_empty_candidate_set(self, table3_subscription):
        table = ConflictTable(table3_subscription, [])
        assert table.k == 0
        assert list(table.iter_defined_entries()) == []

    def test_mismatched_schema_rejected(self, table3_subscription):
        other = Subscription.whole_space(Schema.uniform_integer(2, 0, 5, name="other"))
        with pytest.raises(ValidationError):
            ConflictTable(table3_subscription, [other])

    def test_defined_entries_match_paper_table5(
        self, table3_subscription, table3_candidates
    ):
        """Table 5: the only defined entries are x1>850 (s1) and x1<840 (s2)."""
        table = ConflictTable(table3_subscription, table3_candidates)
        assert not table.is_defined(0, 0, EntrySide.LOW)
        assert table.is_defined(0, 0, EntrySide.HIGH)
        assert not table.is_defined(0, 1, EntrySide.LOW)
        assert not table.is_defined(0, 1, EntrySide.HIGH)
        assert table.is_defined(1, 0, EntrySide.LOW)
        assert not table.is_defined(1, 0, EntrySide.HIGH)
        assert not table.is_defined(1, 1, EntrySide.LOW)
        assert not table.is_defined(1, 1, EntrySide.HIGH)
        assert table.entry_bound(0, 0, EntrySide.HIGH) == 850.0
        assert table.entry_bound(1, 0, EntrySide.LOW) == 840.0

    def test_entry_region_discrete_strictness(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        region_high = table.entry_region(0, 0, EntrySide.HIGH)
        assert region_high.as_tuple() == (851.0, 870.0)
        region_low = table.entry_region(1, 0, EntrySide.LOW)
        assert region_low.as_tuple() == (830.0, 839.0)
        assert table.entry_region(0, 1, EntrySide.LOW).is_empty

    def test_render_contains_undefined_cells(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        text = table.render()
        assert "undefined" in text
        assert "x1>850" in text
        assert "x1<840" in text


class TestCorollaries:
    def test_row_all_undefined_detects_pairwise_cover(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (10, 20), "x2": (10, 20)})
        coverer = Subscription.from_constraints(
            schema_2d, {"x1": (5, 25), "x2": (0, 30)}
        )
        table = ConflictTable(s, [coverer])
        assert table.row_all_undefined(0)
        assert table.covering_rows() == [0]

    def test_row_all_defined_detects_contained_candidate(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 100), "x2": (0, 100)})
        inside = Subscription.from_constraints(
            schema_2d, {"x1": (40, 60), "x2": (40, 60)}
        )
        table = ConflictTable(s, [inside])
        assert table.row_all_defined(0)
        assert table.covered_candidate_rows() == [0]

    def test_defined_entries_listing(self, table6_subscription, table6_candidates):
        table = ConflictTable(table6_subscription, table6_candidates)
        entries_row0 = table.defined_entries(0)
        assert EntryRef(0, 0, EntrySide.HIGH) in entries_row0
        assert all(entry.row == 0 for entry in entries_row0)
        all_entries = list(table.iter_defined_entries())
        assert len(all_entries) == int(table.row_defined_counts.sum())


class TestConflicts:
    def test_paper_example_conflict(self, table3_subscription, table3_candidates):
        """x1>850 (s1) conflicts with x1<840 (s2): no point of s lies between."""
        table = ConflictTable(table3_subscription, table3_candidates)
        first = EntryRef(0, 0, EntrySide.HIGH)
        second = EntryRef(1, 0, EntrySide.LOW)
        assert table.entries_conflict(first, second)
        assert table.entries_conflict(second, first)

    def test_non_conflicting_when_gap_exists(
        self, table6_subscription, table6_candidates
    ):
        """In the non-cover example s1's x1>850 and s2's x1<840 do conflict,
        but s2's x1>870 entry conflicts with nothing."""
        table = ConflictTable(table6_subscription, table6_candidates)
        gap_entry = EntryRef(1, 0, EntrySide.HIGH)
        assert table.is_defined(1, 0, EntrySide.HIGH)
        other_entries = [e for e in table.iter_defined_entries() if e.row != 1]
        assert not any(table.entries_conflict(gap_entry, e) for e in other_entries)

    def test_same_row_never_conflicts(self, table3_subscription, table3_candidates):
        table = ConflictTable(table3_subscription, table3_candidates)
        a = EntryRef(0, 0, EntrySide.HIGH)
        b = EntryRef(0, 0, EntrySide.HIGH)
        assert not table.entries_conflict(a, b)

    def test_different_attributes_never_conflict(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 100), "x2": (0, 100)})
        c1 = Subscription.from_constraints(schema_2d, {"x1": (0, 50), "x2": (0, 100)})
        c2 = Subscription.from_constraints(schema_2d, {"x1": (0, 100), "x2": (50, 100)})
        table = ConflictTable(s, [c1, c2])
        a = EntryRef(0, 0, EntrySide.HIGH)
        b = EntryRef(1, 1, EntrySide.LOW)
        assert not table.entries_conflict(a, b)

    def test_conflict_free_counts_match_paper_table8(
        self, table3_subscription, table7_candidates
    ):
        """Table 8: s3's two x2 entries are conflict free, s1/s2's are not."""
        table = ConflictTable(table3_subscription, table7_candidates)
        counts = table.conflict_free_counts()
        assert counts.tolist() == [0, 0, 2]

    def test_conflict_free_counts_on_row_subset(
        self, table3_subscription, table7_candidates
    ):
        table = ConflictTable(table3_subscription, table7_candidates)
        # Considering only s1 and s3: s1's x1>850 entry no longer conflicts
        # with anything (s2 was the conflicting row), so it becomes free.
        counts = table.conflict_free_counts([0, 2])
        assert counts.tolist() == [1, 2]

    def test_conflict_free_counts_against_bruteforce(self, schema_medium, rng):
        """The vectorised fc computation agrees with the O(k^2 m) definition."""
        from repro.workloads.generators import (
            random_subscription,
            random_subscription_intersecting,
        )

        for _ in range(10):
            s = random_subscription(schema_medium, rng)
            candidates = [
                random_subscription_intersecting(s, rng, cover_probability=0.3)
                for _ in range(8)
            ]
            table = ConflictTable(s, candidates)
            counts = table.conflict_free_counts()
            expected = np.zeros(table.k, dtype=int)
            for entry in table.iter_defined_entries():
                others = [
                    other
                    for other in table.iter_defined_entries()
                    if other.row != entry.row
                ]
                if not any(table.entries_conflict(entry, other) for other in others):
                    expected[entry.row] += 1
            assert counts.tolist() == expected.tolist()


class TestGapMeasures:
    def test_minimum_gap_measures_paper_example(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        gaps = table.minimum_gap_measures()
        # x1: s1 leaves [851, 870] (20 points) uncovered, s2 leaves [830, 839]
        # (10 points); the minimum is 10.  x2 is fully covered by both, so the
        # minimum stays at the full extent of s on x2 (4 points).
        assert gaps.tolist() == [10.0, 4.0]

    def test_minimum_gap_measures_row_subset(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        gaps = table.minimum_gap_measures([0])
        assert gaps.tolist() == [20.0, 4.0]

    def test_restrict(self, table3_subscription, table7_candidates):
        """``rows`` builds the table over a subset, in the given order."""
        table = ConflictTable(table3_subscription, table7_candidates)
        for rows in ([0, 1], [2, 0], np.array([1])):
            restricted = ConflictTable(table3_subscription, table7_candidates, rows)
            assert restricted.k == len(rows)
            assert [c.id for c in restricted.candidates] == [
                table7_candidates[row].id for row in rows
            ]
            assert np.array_equal(
                restricted.signed_bounds(), table.signed_bounds(list(rows))
            )
            assert (
                restricted.row_defined_counts.tolist()
                == table.row_defined_counts[list(rows)].tolist()
            )
            assert (
                restricted.conflict_free_counts().tolist()
                == table.conflict_free_counts(list(rows)).tolist()
            )
