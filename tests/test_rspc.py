"""Unit tests for :mod:`repro.core.rspc` (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.rspc import RSPCOutcome, run_rspc
from repro.model import DomainError, Schema, Subscription


def _reference_sample_point(subscription, rng):
    """The per-attribute loop :meth:`Subscription.sample_point` replaced:
    every coordinate through its own ``AttributeDomain.sample`` call."""
    point = np.empty(subscription.m, dtype=float)
    for j, attribute in enumerate(subscription.schema.attributes):
        point[j] = attribute.domain.sample(subscription.interval(j), rng)
    return point


class TestDrawPoints:
    def test_points_inside_subscription(self, schema_small, rng):
        subscription = Subscription.from_constraints(
            schema_small, {"x1": (10, 20), "x2": (5, 5)}
        )
        points = subscription.draw_batches(rng, 1, 200)
        assert points.shape == (3, 200)
        for point in points.T:
            assert subscription.contains_point(point)
        assert np.all(points[1] == 5.0)

    def test_discrete_points_are_integral(self, schema_small, rng):
        subscription = Subscription.from_constraints(schema_small, {"x1": (0, 3)})
        points = subscription.draw_batches(rng, 1, 50)
        assert np.all(points == np.round(points))

    def test_batches_are_laid_out_one_after_the_other(self, schema_small):
        subscription = Subscription.from_constraints(schema_small, {"x1": (0, 90)})
        together = subscription.draw_batches(np.random.default_rng(3), 3, 40)
        one_by_one = np.random.default_rng(3)
        separate = [subscription.draw_batches(one_by_one, 1, 40) for _ in range(3)]
        assert together.shape == (3, 120)
        assert np.array_equal(together, np.concatenate(separate, axis=1))


class TestSamplingPlanSnapsDiscreteBounds:
    """The plan draws a discrete column from the integers *inside* the
    bounds, like ``IntegerDomain.sample`` (``ceil`` low, ``floor`` high);
    truncating toward zero put guesses outside ``s`` on fractional and
    negative bounds.  The oracle is the per-attribute ``domain.sample``
    loop (:func:`_reference_sample_point`), not ``sample_point`` — that
    now draws through the plan itself."""

    @staticmethod
    def _plan_ranges(subscription):
        first, beyond = subscription.sampling_plan()
        return [
            (int(a), int(b) - 1) for a, b in zip(first.ravel(), beyond.ravel())
        ]

    class _RecordingRng:
        """Stands in for a generator: records the bounds asked for."""

        def __init__(self):
            self.asked = []

        def integers(self, low, high):
            self.asked.append((low, high - 1))
            return low

    @pytest.mark.parametrize(
        "lows, highs",
        [
            ([2.5, -7.5], [9.5, -0.5]),  # the reported case
            ([-9.5, -3.0], [-2.5, 3.0]),  # negative, integer-valued
            ([0.2, -0.8], [1.9, 0.8]),  # ranges holding one integer
            ([-100.0, 99.5], [-99.5, 100.0]),  # clipped at the domain edges
            ([3.0, -4.0], [8.0, 11.0]),  # integer-valued: unchanged
            ([-0.5, -0.75], [0.5, 0.25]),  # straddling zero: the tick 0
            ([-100.0, 100.0], [-100.0, 100.0]),  # one tick at each edge
            ([-100.0, -100.0], [100.0, 100.0]),  # the whole domain
        ],
    )
    def test_plan_ranges_equal_sample_point_ranges(self, lows, highs):
        schema = Schema.uniform_integer(2, -100, 100)
        subscription = Subscription(schema, lows, highs)
        recorder = self._RecordingRng()
        _reference_sample_point(subscription, recorder)
        assert self._plan_ranges(subscription) == recorder.asked

    def test_no_false_not_covered_on_fractional_bounds(self):
        schema = Schema.uniform_integer(2, -100, 100)
        subscription = Subscription(schema, [2.5, -7.5], [9.5, -0.5])
        # holds every integer point of ``s``
        candidate = Subscription(schema, [3, -7], [9, -1])
        for seed in range(20):
            result = run_rspc(
                subscription, [candidate], rho_w=0.5, delta=1e-6, rng=seed
            )
            assert result.outcome is RSPCOutcome.EXHAUSTED

    def test_discrete_range_without_an_integer_is_rejected(self):
        schema = Schema.uniform_integer(2, -100, 100)
        subscription = Subscription(schema, [2.25, 0.0], [2.75, 5.0])
        with pytest.raises(DomainError):
            _reference_sample_point(subscription, np.random.default_rng(0))
        with pytest.raises(DomainError):
            subscription.sample_point(np.random.default_rng(0))
        with pytest.raises(DomainError):
            subscription.sampling_plan()


class TestRunRSPC:
    def test_no_candidates_returns_not_covered(self, table3_subscription, rng):
        result = run_rspc(table3_subscription, [], rho_w=1.0, rng=rng)
        assert result.outcome is RSPCOutcome.NO_CANDIDATES
        assert not result.covered
        assert result.iterations_performed == 0

    def test_witness_found_in_noncover_example(
        self, table6_subscription, table6_candidates, rng
    ):
        result = run_rspc(
            table6_subscription,
            table6_candidates,
            rho_w=0.3,
            delta=1e-6,
            rng=rng,
            max_iterations=10_000,
        )
        assert result.outcome is RSPCOutcome.WITNESS_FOUND
        assert not result.covered
        assert result.witness_point is not None
        assert table6_subscription.contains_point(result.witness_point)
        assert not any(
            c.contains_point(result.witness_point) for c in table6_candidates
        )
        assert result.error_bound == 0.0
        assert 1 <= result.iterations_performed <= result.iterations_allowed

    def test_exhausted_when_covered(
        self, table3_subscription, table3_candidates, rng
    ):
        result = run_rspc(
            table3_subscription,
            table3_candidates,
            rho_w=0.25,
            delta=1e-6,
            rng=rng,
        )
        assert result.outcome is RSPCOutcome.EXHAUSTED
        assert result.covered
        assert result.witness_point is None
        assert result.error_bound <= 1e-6
        assert result.iterations_performed == result.iterations_allowed

    def test_budget_follows_equation_one(self, table3_subscription, table3_candidates, rng):
        result = run_rspc(
            table3_subscription,
            table3_candidates,
            rho_w=0.5,
            delta=1e-3,
            rng=rng,
        )
        # d = ceil(log(1e-3)/log(0.5)) = 10
        assert result.iterations_allowed == 10
        assert result.theoretical_iterations == 10
        assert not result.truncated

    def test_truncation_reported(self, table3_subscription, table3_candidates, rng):
        result = run_rspc(
            table3_subscription,
            table3_candidates,
            rho_w=1e-6,
            delta=1e-10,
            rng=rng,
            max_iterations=50,
        )
        assert result.truncated
        assert result.iterations_allowed == 50
        assert result.error_bound > 1e-10

    def test_seeded_runs_are_reproducible(
        self, table6_subscription, table6_candidates
    ):
        first = run_rspc(
            table6_subscription, table6_candidates, rho_w=0.3, rng=42, max_iterations=100
        )
        second = run_rspc(
            table6_subscription, table6_candidates, rho_w=0.3, rng=42, max_iterations=100
        )
        assert first.iterations_performed == second.iterations_performed
        assert np.array_equal(first.witness_point, second.witness_point)

    def test_never_false_negative_on_covered_instances(self, schema_2d, rng):
        """RSPC can only err toward 'covered'; a NO answer is always right."""
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 50), "x2": (0, 50)})
        coverer = Subscription.from_constraints(
            schema_2d, {"x1": (0, 50), "x2": (0, 50)}
        )
        for _ in range(20):
            result = run_rspc(s, [coverer], rho_w=0.9, delta=1e-3, rng=rng)
            assert result.covered

    def test_statistical_error_rate_within_bound(self, schema_2d):
        """With d derived from Eq. 1 the empirical false-YES rate stays below
        a generous multiple of delta (here delta is large to keep runs fast)."""
        rng = np.random.default_rng(7)
        s = Subscription.from_constraints(schema_2d, {"x1": (0, 99), "x2": (0, 99)})
        # Candidate covers 90% of s on x1: true witness probability is 0.1.
        candidate = Subscription.from_constraints(
            schema_2d, {"x1": (0, 89), "x2": (0, 99)}
        )
        delta = 0.05
        failures = 0
        runs = 200
        for _ in range(runs):
            result = run_rspc(s, [candidate], rho_w=0.1, delta=delta, rng=rng)
            if result.covered:
                failures += 1
        assert failures / runs <= 3 * delta


class TestBudget:
    """``iterations_allowed``/``truncated`` for the four ways the budget is
    set; the guess loop is stubbed out so no case runs to exhaustion."""

    @pytest.fixture
    def allowed_seen(self, monkeypatch):
        from repro.core import rspc as rspc_module

        seen = []

        def no_guesses(subscription, signed, rng, allowed):
            seen.append(allowed)
            return None, 0

        monkeypatch.setattr(rspc_module, "_guess_witness", no_guesses)
        return seen

    def _run(self, table3_subscription, table3_candidates, **kwargs):
        return run_rspc(table3_subscription, table3_candidates, rng=0, **kwargs)

    @pytest.mark.parametrize("candidates", ("table3", "none"))
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            *(
                ({"max_iterations": cap}, "max_iterations must be an int >= 1")
                for cap in (0, -5, 2.5, True, "7")
            ),
            *(
                ({"delta": delta}, r"delta must be in \(0, 1\)")
                for delta in (0.0, 1.0, float("nan"), "0.1")
            ),
        ],
    )
    def test_rejects_bad_settings_before_any_draw(
        self, candidates, kwargs, message, table3_subscription, table3_candidates
    ):
        # a cap below one must not quietly run a guess
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            run_rspc(
                table3_subscription,
                table3_candidates if candidates == "table3" else [],
                rho_w=0.3,
                rng=rng,
                **kwargs,
            )
        assert rng.bit_generator.state == state

    def test_infinite_theoretical_budget(
        self, allowed_seen, table3_subscription, table3_candidates
    ):
        result = self._run(table3_subscription, table3_candidates, rho_w=0.0)
        assert result.theoretical_iterations == float("inf")
        assert result.iterations_allowed == allowed_seen[0] == 2**31 - 1
        assert result.truncated

    def test_finite_theoretical_budget_above_the_cap(
        self, allowed_seen, table3_subscription, table3_candidates
    ):
        """``d`` ~ 1.4e13: used to become the loop bound as it stood."""
        result = self._run(
            table3_subscription, table3_candidates, rho_w=1e-12, delta=1e-6
        )
        assert 1e13 < result.theoretical_iterations < 2e13
        assert result.iterations_allowed == allowed_seen[0] == 2**31 - 1
        assert result.truncated

    def test_theoretical_budget_below_the_cap(
        self, allowed_seen, table3_subscription, table3_candidates
    ):
        result = self._run(
            table3_subscription, table3_candidates, rho_w=0.5, delta=1e-3
        )
        assert result.iterations_allowed == allowed_seen[0] == 10
        assert result.theoretical_iterations == 10
        assert not result.truncated

    def test_capped_by_max_iterations(
        self, allowed_seen, table3_subscription, table3_candidates
    ):
        result = self._run(
            table3_subscription,
            table3_candidates,
            rho_w=1e-12,
            delta=1e-6,
            max_iterations=50,
        )
        assert result.iterations_allowed == allowed_seen[0] == 50
        assert result.truncated
        loose = self._run(
            table3_subscription,
            table3_candidates,
            rho_w=0.5,
            delta=1e-3,
            max_iterations=50,
        )
        assert loose.iterations_allowed == 10
        assert not loose.truncated
