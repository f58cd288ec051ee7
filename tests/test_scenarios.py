"""Unit tests for the evaluation scenarios (:mod:`repro.workloads.scenarios`).

Every scenario generator is validated against the exact oracle: the
instances it produces must have the cover/non-cover property the paper's
evaluation relies on, plus the structural side conditions (no pair-wise
subsumption in the difficult scenarios, intersection with ``s``, …).
"""

import numpy as np
import pytest

from repro.core.exact import exact_group_cover
from repro.core.pairwise import PairwiseCoverageChecker
from repro.model import Schema
from repro.workloads.scenarios import (
    ScenarioInstance,
    ScenarioName,
    extreme_non_cover_scenario,
    generate_scenario,
    no_intersection_scenario,
    non_cover_scenario,
    pairwise_covering_scenario,
    redundant_covering_scenario,
)


def _meets(a, b):
    """Whether two boxes share a point."""
    return bool(np.all(a.lows <= b.highs) and np.all(b.lows <= a.highs))


@pytest.fixture
def schema():
    return Schema.uniform_integer(4, 0, 10_000)


class TestPairwiseCoveringScenario:
    @pytest.mark.parametrize("seed", range(3))
    def test_properties(self, schema, seed):
        instance = pairwise_covering_scenario(schema, 12, seed)
        assert instance.k == 12
        assert instance.expected_covered is True
        assert exact_group_cover(instance.subscription, instance.candidates)
        assert PairwiseCoverageChecker.check(
            instance.subscription, instance.candidates
        ).covered
        assert len(instance.redundant_ids) == 11

    def test_invalid_k(self, schema):
        with pytest.raises(ValueError):
            pairwise_covering_scenario(schema, 0)


class TestRedundantCoveringScenario:
    @pytest.mark.parametrize("seed", range(3))
    def test_union_covers_but_no_single_candidate(self, schema, seed):
        instance = redundant_covering_scenario(schema, 20, seed)
        assert instance.expected_covered is True
        assert exact_group_cover(instance.subscription, instance.candidates)
        assert not PairwiseCoverageChecker.check(
            instance.subscription, instance.candidates
        ).covered

    def test_redundant_fraction(self, schema):
        instance = redundant_covering_scenario(schema, 30, 1, covering_fraction=0.2)
        assert instance.metadata["covering_count"] == 6
        assert instance.metadata["redundant_count"] == 24
        assert len(instance.redundant_ids) == 24

    def test_all_candidates_intersect_s(self, schema):
        instance = redundant_covering_scenario(schema, 25, 2)
        assert all(
            _meets(instance.subscription, candidate)
            for candidate in instance.candidates
        )

    def test_covering_group_alone_suffices(self, schema):
        instance = redundant_covering_scenario(schema, 20, 3)
        redundant = set(instance.redundant_ids)
        covering_only = [
            candidate
            for candidate in instance.candidates
            if candidate.id not in redundant
        ]
        assert exact_group_cover(instance.subscription, covering_only)

    def test_invalid_k(self, schema):
        with pytest.raises(ValueError):
            redundant_covering_scenario(schema, 1)


class TestNoIntersectionScenario:
    @pytest.mark.parametrize("seed", range(3))
    def test_no_candidate_intersects(self, schema, seed):
        instance = no_intersection_scenario(schema, 15, seed)
        assert instance.expected_covered is False
        assert not any(
            _meets(instance.subscription, candidate)
            for candidate in instance.candidates
        )
        assert not exact_group_cover(instance.subscription, instance.candidates)


class TestNonCoverScenario:
    @pytest.mark.parametrize("seed", range(3))
    def test_gap_left_uncovered(self, schema, seed):
        instance = non_cover_scenario(schema, 15, seed)
        assert instance.expected_covered is False
        assert not exact_group_cover(instance.subscription, instance.candidates)
        assert not PairwiseCoverageChecker.check(
            instance.subscription, instance.candidates
        ).covered
        gap_low, gap_high = instance.metadata["gap"]
        # No candidate reaches into the gap on the first attribute.
        for candidate in instance.candidates:
            interval = candidate.interval(0)
            assert interval.high < gap_low or interval.low > gap_high

    def test_all_candidates_intersect_s(self, schema):
        instance = non_cover_scenario(schema, 15, 4)
        assert all(
            _meets(instance.subscription, candidate)
            for candidate in instance.candidates
        )

    def test_explicit_gap_fraction_recorded(self, schema):
        instance = non_cover_scenario(schema, 10, 5, gap_fraction=0.1)
        assert instance.metadata["gap_fraction"] == 0.1


class TestExtremeNonCoverScenario:
    @pytest.mark.parametrize("gap", [0.005, 0.02, 0.045])
    def test_only_the_gap_is_uncovered(self, schema, gap):
        from repro.core.exact import uncovered_region

        instance = extreme_non_cover_scenario(schema, 20, gap, 7)
        assert not exact_group_cover(instance.subscription, instance.candidates)
        gap_low, gap_high = instance.metadata["gap"]
        region = uncovered_region(instance.subscription, instance.candidates)
        assert region
        for piece in region:
            assert piece.interval(0).low >= gap_low
            assert piece.interval(0).high <= gap_high
            # On all other attributes the uncovered slice spans s entirely.
            for attribute in range(1, schema.m):
                assert piece.interval(attribute) == instance.subscription.interval(
                    attribute
                )

    def test_no_pairwise_subsumption(self, schema):
        instance = extreme_non_cover_scenario(schema, 20, 0.02, 8)
        assert not PairwiseCoverageChecker.check(
            instance.subscription, instance.candidates
        ).covered

    def test_mcs_cannot_discard_the_tiling(self, schema):
        """The tiles conflict with their neighbours, so MCS keeps them all;
        this is what forces RSPC to actually run in Figures 11 and 12."""
        from repro.core.conflict_table import ConflictTable
        from repro.core.mcs import minimized_cover_set

        instance = extreme_non_cover_scenario(schema, 20, 0.02, 9)
        table = ConflictTable(instance.subscription, instance.candidates)
        reduction = minimized_cover_set(table)
        assert len(reduction.kept) >= instance.k // 2

    def test_candidate_count(self, schema):
        instance = extreme_non_cover_scenario(schema, 24, 0.03, 10)
        assert instance.k == 24

    def test_invalid_arguments(self, schema):
        with pytest.raises(ValueError):
            extreme_non_cover_scenario(schema, 2, 0.02)
        with pytest.raises(ValueError):
            extreme_non_cover_scenario(schema, 10, 1.5)


class TestDispatcher:
    def test_generate_by_name(self, schema):
        for name in ScenarioName:
            kwargs = {"gap_fraction": 0.02} if name is ScenarioName.EXTREME_NON_COVER else {}
            instance = generate_scenario(name, schema, 10, 3, **kwargs)
            assert isinstance(instance, ScenarioInstance)
            assert instance.metadata["scenario"] == name.value

    def test_generate_accepts_string_names(self, schema):
        instance = generate_scenario("non_cover", schema, 8, 1)
        assert instance.metadata["scenario"] == "non_cover"

    def test_expected_answer_matches_oracle_for_all_scenarios(self, schema):
        rng = np.random.default_rng(123)
        for name in ScenarioName:
            kwargs = {"gap_fraction": 0.03} if name is ScenarioName.EXTREME_NON_COVER else {}
            for _ in range(3):
                instance = generate_scenario(name, schema, 12, rng, **kwargs)
                assert instance.expected_covered == exact_group_cover(
                    instance.subscription, instance.candidates
                ), name
