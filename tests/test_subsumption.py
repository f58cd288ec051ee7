"""Unit tests for :mod:`repro.core.subsumption` (the full pipeline)."""

import math

import numpy as np
import pytest

from repro.core.results import Answer, DecisionMethod
from repro.core.subsumption import SubsumptionChecker
from repro.model import Schema, Subscription


@pytest.fixture
def checker():
    return SubsumptionChecker(delta=1e-6, max_iterations=5_000, rng=1234)


class TestConfiguration:
    @pytest.mark.parametrize("delta", (0.0, 1.0, 1.5, float("nan"), "0.1"))
    def test_rejects_invalid_delta(self, delta):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            SubsumptionChecker(delta=delta)

    @pytest.mark.parametrize("cap", (0, -3, 2.5, True, "7"))
    def test_rejects_invalid_max_iterations(self, cap):
        with pytest.raises(ValueError, match="max_iterations must be an int >= 1"):
            SubsumptionChecker(max_iterations=cap)


class TestVerdicts:
    def test_empty_candidate_set(self, checker, table3_subscription):
        result = checker.check(table3_subscription, [])
        assert result.answer is Answer.NOT_COVERED
        assert result.method is DecisionMethod.EMPTY_CANDIDATE_SET
        assert not result.covered

    def test_pairwise_cover_short_circuit(self, checker, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (10, 20), "x2": (10, 20)})
        coverer = Subscription.from_constraints(schema_2d, {"x1": (0, 30), "x2": (0, 30)})
        result = checker.check(s, [coverer])
        assert result.answer is Answer.COVERED
        assert result.method is DecisionMethod.PAIRWISE_COVER
        assert result.covering_row == 0
        assert result.iterations_performed == 0
        assert result.covered

    def test_group_cover_probabilistic_yes(
        self, checker, table3_subscription, table3_candidates
    ):
        result = checker.check(table3_subscription, table3_candidates)
        assert result.answer is Answer.PROBABLY_COVERED
        assert result.method is DecisionMethod.RSPC_EXHAUSTED
        assert result.covered
        assert result.error_bound <= 1e-6
        assert result.rho_w == pytest.approx(40.0 / 164.0)
        assert result.iterations_performed == result.theoretical_iterations

    def test_non_cover_witness_found(
        self, checker, table6_subscription, table6_candidates
    ):
        result = checker.check(table6_subscription, table6_candidates)
        assert result.answer is Answer.NOT_COVERED
        assert result.method in (
            DecisionMethod.POINT_WITNESS,
            DecisionMethod.POLYHEDRON_WITNESS,
            DecisionMethod.EMPTY_MCS,
        )
        if result.witness_point is not None:
            assert table6_subscription.contains_point(result.witness_point)
            assert not any(
                c.contains_point(result.witness_point) for c in table6_candidates
            )

    def test_disjoint_candidates_empty_mcs(self, checker, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 10), "x2": (0, 10)})
        far = Subscription.from_constraints(
            schema_2d, {"x1": (100, 200), "x2": (100, 200)}
        )
        result = checker.check(s, [far])
        assert result.answer is Answer.NOT_COVERED
        assert result.method in (
            DecisionMethod.EMPTY_MCS,
            DecisionMethod.POLYHEDRON_WITNESS,
        )
        assert result.iterations_performed == 0

    def test_reduction_sizes(self, checker, table3_subscription, table7_candidates):
        result = checker.check(table3_subscription, table7_candidates)
        assert result.original_set_size == 3
        assert result.reduced_set_size == 2


class TestStageToggles:
    def test_without_fast_decisions_still_correct(self, schema_2d):
        checker = SubsumptionChecker(
            delta=1e-6, max_iterations=2000, use_fast_decisions=False, rng=5
        )
        s = Subscription.from_constraints(schema_2d, {"x1": (10, 20), "x2": (10, 20)})
        coverer = Subscription.from_constraints(schema_2d, {"x1": (0, 30), "x2": (0, 30)})
        result = checker.check(s, [coverer])
        assert result.covered

    def test_without_mcs_still_correct(
        self, table3_subscription, table3_candidates
    ):
        checker = SubsumptionChecker(
            delta=1e-6, max_iterations=2000, use_mcs=False, rng=5
        )
        result = checker.check(table3_subscription, table3_candidates)
        assert result.covered
        assert result.reduced_set_size == result.original_set_size

    def test_theoretical_d_with_and_without_mcs(
        self, table3_subscription, table7_candidates
    ):
        checker = SubsumptionChecker(delta=1e-6, rng=0)
        with_mcs = checker.theoretical_d(table3_subscription, table7_candidates)
        without = checker.theoretical_d(
            table3_subscription, table7_candidates, apply_mcs=False
        )
        assert with_mcs <= without
        assert checker.theoretical_d(table3_subscription, []) == 0.0


class TestSeededReproducibility:
    def test_same_seed_same_outcome(self, table6_subscription, table6_candidates):
        a = SubsumptionChecker(delta=1e-6, rng=99).check(
            table6_subscription, table6_candidates
        )
        b = SubsumptionChecker(delta=1e-6, rng=99).check(
            table6_subscription, table6_candidates
        )
        assert a.answer == b.answer
        assert a.iterations_performed == b.iterations_performed


class TestSoundness:
    """The pipeline may only err in one direction (false 'covered')."""

    @pytest.mark.parametrize("seed", range(10))
    def test_no_answers_are_always_correct(self, seed, schema_small):
        from repro.core.exact import exact_group_cover
        from repro.workloads.generators import (
            random_subscription,
            random_subscription_intersecting,
        )

        rng = np.random.default_rng(seed)
        checker = SubsumptionChecker(delta=1e-3, max_iterations=500, rng=seed)
        for _ in range(5):
            s = random_subscription(schema_small, rng)
            candidates = [
                random_subscription_intersecting(s, rng, cover_probability=0.4)
                for _ in range(5)
            ]
            result = checker.check(s, candidates)
            if not result.covered:
                assert exact_group_cover(s, candidates) is False

    @pytest.mark.parametrize("seed", range(5))
    def test_covered_instances_always_accepted(self, seed, schema_small):
        """Deterministically covered instances are never declared NO."""
        from repro.workloads.scenarios import (
            pairwise_covering_scenario,
            redundant_covering_scenario,
        )

        rng = np.random.default_rng(seed)
        checker = SubsumptionChecker(delta=1e-6, max_iterations=5000, rng=seed)
        pairwise = pairwise_covering_scenario(schema_small, 8, rng)
        assert checker.check(pairwise.subscription, pairwise.candidates).covered
        redundant = redundant_covering_scenario(schema_small, 10, rng)
        assert checker.check(redundant.subscription, redundant.candidates).covered
