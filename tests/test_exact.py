"""Unit tests for :mod:`repro.core.exact` (the deterministic oracle)."""

import numpy as np
import pytest

from repro.core.exact import exact_group_cover, exact_witness_point, uncovered_region
from repro.core.results import Answer
from repro.core.subsumption import SubsumptionChecker
from repro.model import Attribute, ContinuousDomain, IntegerDomain, Schema, Subscription
from repro.workloads.scenarios import ScenarioName, generate_scenario


class TestPaperExamples:
    def test_table3_is_covered(self, table3_subscription, table3_candidates):
        assert exact_group_cover(table3_subscription, table3_candidates) is True

    def test_table6_is_not_covered(self, table6_subscription, table6_candidates):
        assert exact_group_cover(table6_subscription, table6_candidates) is False

    def test_table6_witness_region_is_the_gap(
        self, table6_subscription, table6_candidates
    ):
        region = uncovered_region(table6_subscription, table6_candidates)
        assert region
        # Every uncovered box lies beyond x1 = 870 (the polyhedron witness of
        # Figure 3) and inside s.
        for piece in region:
            assert piece.interval("x1").low >= 871
            assert table6_subscription.covers(piece)

    def test_witness_point(self, table6_subscription, table6_candidates):
        point = exact_witness_point(table6_subscription, table6_candidates)
        assert point is not None
        assert table6_subscription.contains_point(point)
        assert not any(c.contains_point(point) for c in table6_candidates)

    def test_witness_point_none_when_covered(
        self, table3_subscription, table3_candidates
    ):
        assert exact_witness_point(table3_subscription, table3_candidates) is None


class TestGeneralBehaviour:
    def test_empty_candidates_leave_everything_uncovered(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 10), "x2": (0, 10)})
        assert exact_group_cover(s, []) is False
        region = uncovered_region(s, [])
        assert len(region) == 1
        assert region[0].same_box(s)

    def test_exact_cover_by_partition(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 99), "x2": (0, 99)})
        left = Subscription.from_constraints(schema_2d, {"x1": (0, 49), "x2": (0, 99)})
        right = Subscription.from_constraints(schema_2d, {"x1": (50, 99), "x2": (0, 99)})
        assert exact_group_cover(s, [left, right]) is True

    def test_one_point_gap_detected(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 99), "x2": (0, 99)})
        left = Subscription.from_constraints(schema_2d, {"x1": (0, 49), "x2": (0, 99)})
        right = Subscription.from_constraints(schema_2d, {"x1": (51, 99), "x2": (0, 99)})
        assert exact_group_cover(s, [left, right]) is False
        witness = exact_witness_point(s, [left, right])
        assert witness[0] == 50.0

    def test_duplicate_candidates(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (10, 20), "x2": (10, 20)})
        cover = Subscription.from_constraints(schema_2d, {"x1": (0, 30), "x2": (0, 30)})
        assert exact_group_cover(s, [cover, cover, cover]) is True

    def test_uncovered_region_measure_adds_up(self, schema_2d, rng):
        """The uncovered boxes are disjoint and their sizes sum to the size
        of s minus the size of the covered part (checked by sampling)."""
        from repro.workloads.generators import random_subscription_intersecting

        s = Subscription.from_constraints(schema_2d, {"x1": (0, 60), "x2": (0, 60)})
        candidates = [
            random_subscription_intersecting(s, rng) for _ in range(4)
        ]
        region = uncovered_region(s, candidates)
        total_uncovered = sum(piece.size() for piece in region)
        # Monte Carlo estimate of the uncovered fraction.
        samples = 3000
        hits = 0
        for _ in range(samples):
            point = s.sample_point(rng)
            if not any(c.contains_point(point) for c in candidates):
                hits += 1
        estimate = hits / samples * s.size()
        assert total_uncovered == pytest.approx(estimate, rel=0.25, abs=5.0)

    def test_box_budget_guard(self, schema_2d):
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 99), "x2": (0, 99)})
        candidates = [
            Subscription.from_constraints(
                schema_2d, {"x1": (i, i), "x2": (i, i)}
            )
            for i in range(1, 60)
        ]
        with pytest.raises(RuntimeError):
            uncovered_region(s, candidates, max_boxes=10)

    def test_continuous_domain_cover(self):
        schema = Schema(
            [("x", ContinuousDomain(0.0, 1.0)), ("y", ContinuousDomain(0.0, 1.0))]
        )
        s = Subscription.from_constraints(schema, {"x": (0.2, 0.8), "y": (0.2, 0.8)})
        left = Subscription.from_constraints(schema, {"x": (0.0, 0.5), "y": (0.0, 1.0)})
        right = Subscription.from_constraints(schema, {"x": (0.5, 1.0), "y": (0.0, 1.0)})
        assert exact_group_cover(s, [left, right]) is True
        assert exact_group_cover(s, [left]) is False


#: small schemas for the family slice: all-integer, and mixed with two
#: continuous attributes (one of them narrow)
FAMILY_SCHEMAS = {
    "integer": Schema.uniform_integer(3, 0, 60, prefix="x", name="small-integer"),
    "mixed": Schema(
        [
            Attribute("a", IntegerDomain(0, 60)),
            Attribute("b", ContinuousDomain(0.0, 50.0)),
            Attribute("c", IntegerDomain(-20, 20)),
            Attribute("d", ContinuousDomain(-1.0, 1.0)),
        ],
        name="small-mixed",
    ),
}


def _fractional(subscription, rng, inwards):
    """``subscription`` with fractional bounds on its discrete attributes.

    Every discrete bound moves outwards by less than a tick, which leaves
    the ticks inside unchanged.  With ``inwards``, an attribute wide
    enough to keep a tick moves both bounds inwards instead half the
    time, which drops its end ticks.
    """
    discrete = subscription.schema.vectors.discrete
    lows, highs = subscription.lows.copy(), subscription.highs.copy()
    shift = rng.uniform(0.1, 0.9, size=(2, len(lows)))
    if inwards:
        sign = np.where(highs - lows >= 2.0, rng.choice((-1.0, 1.0), len(lows)), 1.0)
    else:
        sign = np.ones(len(lows))
    lows[discrete] -= (sign * shift[0])[discrete]
    highs[discrete] += (sign * shift[1])[discrete]
    return Subscription(subscription.schema, lows, highs)


class TestAgreementWithRSPC:
    @pytest.mark.parametrize("seed", range(8))
    def test_rspc_no_answers_agree_with_oracle(self, seed, schema_small):
        """Whenever the probabilistic pipeline answers NO, the oracle agrees."""
        from repro.workloads.generators import (
            random_subscription,
            random_subscription_intersecting,
        )

        rng = np.random.default_rng(seed)
        checker = SubsumptionChecker(delta=1e-4, max_iterations=2000, rng=seed)
        s = random_subscription(schema_small, rng)
        candidates = [
            random_subscription_intersecting(s, rng, cover_probability=0.5)
            for _ in range(6)
        ]
        result = checker.check(s, candidates)
        truth = exact_group_cover(s, candidates)
        if not result.covered:
            assert truth is False

    @pytest.mark.parametrize("kind", sorted(FAMILY_SCHEMAS))
    @pytest.mark.parametrize("name", list(ScenarioName))
    def test_families_have_no_false_not_covered(self, kind, name):
        """The five Section-6 families at k <= 10, m <= 4 with fractional
        discrete bounds: no ``NOT_COVERED`` verdict is a false one."""
        schema = FAMILY_SCHEMAS[kind]
        answers = set()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(4, 11))
            extra = {}
            if name is ScenarioName.EXTREME_NON_COVER:
                extra["gap_fraction"] = 0.05
            instance = generate_scenario(name, schema, k, rng=rng, **extra)
            s = _fractional(instance.subscription, rng, inwards=False)
            candidates = [
                _fractional(c, rng, inwards=True) for c in instance.candidates
            ]
            checker = SubsumptionChecker(delta=1e-4, max_iterations=2000, rng=seed)
            result = checker.check(s, candidates)
            answers.add(result.answer)
            if result.answer is Answer.NOT_COVERED:
                # against the oracle on the full set: ``witness_point`` is
                # only a witness against the minimized one
                assert exact_group_cover(s, candidates) is False
        if name not in (
            ScenarioName.PAIRWISE_COVERING,
            ScenarioName.REDUNDANT_COVERING,
        ):
            assert Answer.NOT_COVERED in answers
