"""Unit tests for :mod:`repro.core.mcs` (Algorithm 3)."""

import pytest

from repro.core.conflict_table import ConflictTable
from repro.core.exact import exact_group_cover
from repro.core.mcs import minimized_cover_set
from repro.model import Schema, Subscription
from repro.workloads.scenarios import (
    no_intersection_scenario,
    non_cover_scenario,
    redundant_covering_scenario,
)


class TestPaperExample:
    def test_table8_removes_s3_keeps_s1_s2(
        self, table3_subscription, table7_candidates
    ):
        """The worked example of Section 4.2: MCS removes exactly s3."""
        table = ConflictTable(table3_subscription, table7_candidates)
        result = minimized_cover_set(table)
        assert [c.id for c in result.kept] == ["s1", "s2"]
        removed_ids = {table7_candidates[row].id for row in result.removed_rows}
        assert removed_ids == {"s3"}
        assert len(result.kept) == 2
        assert len(result.removed_rows) == 1

    def test_table3_pair_is_irreducible(
        self, table3_subscription, table3_candidates
    ):
        table = ConflictTable(table3_subscription, table3_candidates)
        result = minimized_cover_set(table)
        assert len(result.kept) == 2
        assert len(result.removed_rows) == 0


class TestEliminationRules:
    def test_non_intersecting_candidates_removed(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 10), "x2": (0, 10)})
        far = Subscription.from_constraints(
            schema_2d, {"x1": (500, 600), "x2": (500, 600)}
        )
        table = ConflictTable(s, [far])
        result = minimized_cover_set(table)
        assert len(result.kept) == 0

    def test_ti_geq_k_rule(self, schema_2d):
        """With k=1 any candidate with at least one defined entry is removed."""
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 100), "x2": (0, 100)})
        partial = Subscription.from_constraints(
            schema_2d, {"x1": (0, 50), "x2": (0, 100)}
        )
        table = ConflictTable(s, [partial])
        result = minimized_cover_set(table)
        assert len(result.kept) == 0

    def test_covering_candidate_never_removed(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (10, 20), "x2": (10, 20)})
        coverer = Subscription.from_constraints(schema_2d, {"x1": (0, 30), "x2": (0, 30)})
        table = ConflictTable(s, [coverer])
        result = minimized_cover_set(table)
        assert len(result.kept) == 1

    def test_empty_table(self, table3_subscription):
        table = ConflictTable(table3_subscription, [])
        result = minimized_cover_set(table)
        assert len(result.kept) == 0
        assert len(result.removed_rows) == 0

    def test_cascading_removal(self, schema_2d):
        """Removing one candidate can make another one removable."""
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 100), "x2": (0, 100)})
        # a narrows x2 only (conflict-free entries on x2 -> removed first);
        # b and c jointly cover x1 and conflict with each other on x1.
        a = Subscription.from_constraints(schema_2d, {"x1": (0, 100), "x2": (20, 80)})
        b = Subscription.from_constraints(schema_2d, {"x1": (0, 60), "x2": (0, 100)})
        c = Subscription.from_constraints(schema_2d, {"x1": (50, 100), "x2": (0, 100)})
        table = ConflictTable(s, [a, b, c])
        result = minimized_cover_set(table)
        kept_ids = {sub.id for sub in result.kept}
        assert a.id not in kept_ids
        assert kept_ids == {b.id, c.id}


class TestAnswerPreservation:
    """MCS must never change the answer to the subsumption question."""

    @pytest.mark.parametrize("seed", range(6))
    def test_preserved_on_random_scenarios(self, seed, schema_small):
        import numpy as np

        rng = np.random.default_rng(seed)
        generators = [
            lambda: redundant_covering_scenario(schema_small, 12, rng),
            lambda: non_cover_scenario(schema_small, 12, rng),
            lambda: no_intersection_scenario(schema_small, 12, rng),
        ]
        for generate in generators:
            instance = generate()
            table = ConflictTable(instance.subscription, instance.candidates)
            reduction = minimized_cover_set(table)
            before = exact_group_cover(instance.subscription, instance.candidates)
            after = exact_group_cover(instance.subscription, list(reduction.kept))
            assert before == after
