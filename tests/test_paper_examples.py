"""End-to-end reproduction of the paper's worked examples.

* Table 1 / Table 2 — the motivating bike-rental and Grid examples,
  including the stated matches (p1 matches s1, p2 matches s2).
* Table 3 / Table 5 / Figure 2 — the 2-D group-cover example and its
  conflict table.
* Table 6 / Figure 3 — the non-cover example with its polyhedron witness.
* Table 7 / Table 8 / Figure 4 — the conflict-free example driving MCS.
"""

import pytest

from repro.core import (
    ConflictTable,
    PairwiseCoverageChecker,
    SubsumptionChecker,
    exact_group_cover,
    minimized_cover_set,
)
from repro.model import Publication, Subscription
from repro.workloads.bike_rental import bike_rental_schema
from repro.workloads.grid import grid_schema


class TestTable1BikeRental:
    @pytest.fixture
    def schema(self):
        return bike_rental_schema()

    @pytest.fixture
    def s1(self, schema):
        return Subscription.from_constraints(
            schema,
            {
                "bID": (1000, 1999),
                "size": 19,
                "brand": "X",
                "rpID": (820, 840),
                "date": ("2006-03-31T16:00:00", "2006-03-31T20:00:00"),
            },
            subscriber="weekend-rider",
        )

    @pytest.fixture
    def s2(self, schema):
        return Subscription.from_constraints(
            schema,
            {
                "bID": (1, 1999),
                "size": (17, 19),
                "rpID": (10, 12),
                "date": ("2006-03-31T12:00:00", "2006-03-31T14:00:00"),
            },
            subscriber="lunch-break",
        )

    @pytest.fixture
    def p1(self, schema):
        return Publication.from_values(
            schema,
            {
                "bID": 1036,
                "size": 19,
                "brand": "X",
                "rpID": 825,
                "date": "2006-03-31T18:23:05",
            },
        )

    @pytest.fixture
    def p2(self, schema):
        return Publication.from_values(
            schema,
            {
                "bID": 1035,
                "size": 17,
                "brand": "Y",
                "rpID": 11,
                "date": "2006-03-31T12:23:05",
            },
        )

    def test_p1_matches_s1_only(self, s1, s2, p1):
        assert s1.matches(p1)
        assert not s2.matches(p1)

    def test_p2_matches_s2_only(self, s1, s2, p2):
        assert s2.matches(p2)
        assert not s1.matches(p2)

    def test_s1_and_s2_do_not_cover_each_other(self, s1, s2):
        assert not s1.covers(s2)
        assert not s2.covers(s1)


class TestTable2Grid:
    def test_service_matches_fitting_job(self):
        schema = grid_schema()
        service = Subscription.from_constraints(
            schema,
            {
                "CPUcycles": (3000, 3500),
                "disk": (40, 50),
                "memory": 1,
                "service": "a.service.org",
                "time": ("2006-03-31T16:00:00", "2006-03-31T20:00:00"),
            },
        )
        fitting_job = Publication.from_values(
            schema,
            {
                "CPUcycles": 3500,
                "disk": 45,
                "memory": 1,
                "service": "a.service.org",
                "time": "2006-03-31T16:00:00",
            },
        )
        misfitting_job = Publication.from_values(
            schema,
            {
                "CPUcycles": 1035,
                "disk": 45,
                "memory": 1,
                "service": "a.service.org",
                "time": "2006-03-31T12:23:05",
            },
        )
        assert service.matches(fitting_job)
        assert not service.matches(misfitting_job)


class TestTable3GroupCover:
    def test_union_covers_but_no_single_subscription_does(
        self, table3_subscription, table3_candidates
    ):
        s1, s2 = table3_candidates
        assert not s1.covers(table3_subscription)
        assert not s2.covers(table3_subscription)
        assert exact_group_cover(table3_subscription, table3_candidates)

    def test_pairwise_baseline_fails_probabilistic_succeeds(
        self, table3_subscription, table3_candidates
    ):
        baseline = PairwiseCoverageChecker.check(
            table3_subscription, table3_candidates
        )
        assert not baseline.covered
        checker = SubsumptionChecker(delta=1e-9, rng=42)
        assert checker.check(table3_subscription, table3_candidates).covered

    def test_conflict_table_matches_table5(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        # Exactly one defined entry per row, as printed in Table 5.
        assert table.row_defined_counts.tolist() == [1, 1]
        rendered = table.render()
        assert "x1>850" in rendered
        assert "x1<840" in rendered


class TestTable6NonCover:
    def test_not_covered_and_witness_beyond_870(
        self, table6_subscription, table6_candidates
    ):
        assert not exact_group_cover(table6_subscription, table6_candidates)
        checker = SubsumptionChecker(delta=1e-9, rng=7)
        result = checker.check(table6_subscription, table6_candidates)
        assert not result.covered
        if result.witness_point is not None:
            assert result.witness_point[0] > 870


class TestTable8ConflictFree:
    def test_mcs_reduces_to_s1_s2(
        self, table3_subscription, table7_candidates, conflict_free_counts
    ):
        table = ConflictTable(table3_subscription, table7_candidates)
        assert conflict_free_counts(table).tolist() == [0, 0, 2]
        reduction = minimized_cover_set(table)
        assert [c.id for c in reduction.kept] == ["s1", "s2"]

    def test_answer_unchanged_after_reduction(
        self, table3_subscription, table7_candidates
    ):
        table = ConflictTable(table3_subscription, table7_candidates)
        reduction = minimized_cover_set(table)
        assert exact_group_cover(table3_subscription, table7_candidates) == (
            exact_group_cover(table3_subscription, list(reduction.kept))
        )
