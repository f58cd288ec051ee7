"""Integration tests for the experiment harness (smoke presets).

Each figure runner is executed with its tiny ``smoke()`` preset and the
qualitative properties the paper reports are asserted:

* Figure 6/8 — MCS removes the (vast) majority of redundant subscriptions;
* Figure 7/9 — the theoretical ``d`` after MCS is no larger than without;
* Figure 10 — the actual iterations with MCS are (near) zero;
* Figure 11 — actual iterations decrease as the gap grows;
* Figure 12 — false decisions do not increase with the gap size;
* Figure 13/14 — group covering keeps the active set no larger than
  pair-wise covering (ratio ≤ 1);
* Eq. 2 — simulation agrees with the closed form.
"""

import math

import pytest

from repro.experiments import (
    ChainConfig,
    ComparisonConfig,
    ExtremeNonCoverConfig,
    NonCoverConfig,
    RedundantCoveringConfig,
    run_chain_delivery,
    run_comparison,
    run_extreme_non_cover,
    run_non_cover,
    run_redundant_covering,
)
from repro.experiments.series import ResultTable


class TestRedundantCovering:
    @pytest.fixture(scope="class")
    def results(self):
        return run_redundant_covering(RedundantCoveringConfig.smoke())

    def test_returns_both_figures(self, results):
        assert set(results) == {"fig6", "fig7"}
        assert isinstance(results["fig6"], ResultTable)

    def test_reduction_is_high(self, results):
        for series in results["fig6"].series.values():
            assert all(value >= 0.5 for value in series.values)
            assert all(value <= 1.0 for value in series.values)

    def test_mcs_reduces_theoretical_d(self, results):
        fig7 = results["fig7"]
        plain = fig7.series["m=5"].values
        reduced = fig7.series["m=5;MCS"].values
        assert all(r <= p + 1e-9 for p, r in zip(plain, reduced))

    def test_render_and_csv(self, results):
        text = results["fig6"].render()
        assert "Figure 6" in text and "m=5" in text
        csv = results["fig7"].to_csv()
        assert csv.startswith("k,")


class TestNonCover:
    @pytest.fixture(scope="class")
    def results(self):
        return run_non_cover(NonCoverConfig.smoke())

    def test_returns_three_figures(self, results):
        assert set(results) == {"fig8", "fig9", "fig10"}

    def test_reduction_close_to_total(self, results):
        for series in results["fig8"].series.values():
            assert all(value >= 0.8 for value in series.values)

    def test_actual_iterations_with_mcs_near_zero(self, results):
        fig10 = results["fig10"]
        assert all(value <= 1.0 for value in fig10.series["m=5;MCS"].values)

    def test_actual_iterations_far_below_theoretical(self, results):
        fig9 = results["fig9"]
        fig10 = results["fig10"]
        for label in ("m=5",):
            theoretical_log = fig9.series[label].values
            actual = fig10.series[label].values
            for log_d, iterations in zip(theoretical_log, actual):
                if math.isfinite(log_d):
                    assert iterations <= 10 ** log_d


class TestExtremeNonCover:
    @pytest.fixture(scope="class")
    def results(self):
        return run_extreme_non_cover(ExtremeNonCoverConfig.smoke())

    def test_returns_both_figures(self, results):
        assert set(results) == {"fig11", "fig12"}

    def test_iterations_decrease_with_gap(self, results):
        fig11 = results["fig11"]
        series = fig11.series["error=0.001"].values
        assert series[0] >= series[-1]

    def test_false_decisions_do_not_increase_with_gap(self, results):
        fig12 = results["fig12"]
        series = fig12.series["error=0.001"].values
        assert series[0] >= series[-1]
        assert all(value >= 0 for value in series)

    def test_scaled_column_present(self, results):
        assert "error=0.001/3000" in results["fig12"].series


class TestComparison:
    @pytest.fixture(scope="class")
    def results(self):
        return run_comparison(ComparisonConfig.smoke())

    def test_returns_both_figures(self, results):
        assert set(results) == {"fig13", "fig14"}

    def test_group_never_larger_than_pairwise(self, results):
        fig14 = results["fig14"]
        for series in fig14.series.values():
            assert all(value <= 1.0 + 1e-9 for value in series.values)

    def test_active_sets_grow_monotonically(self, results):
        fig13 = results["fig13"]
        for series in fig13.series.values():
            assert all(
                later >= earlier
                for earlier, later in zip(series.values, series.values[1:])
            )

    def test_covering_reduces_below_total(self, results):
        fig13 = results["fig13"]
        total = ComparisonConfig.smoke().total_subscriptions
        for name, series in fig13.series.items():
            assert series.values[-1] <= total


class TestChain:
    @pytest.fixture(scope="class")
    def results(self):
        return run_chain_delivery(ChainConfig.smoke())

    def test_simulation_matches_analytic(self, results):
        table = results["eq2"]
        analytic = table.series["rho=0.1 (analytic)"].values
        simulated = table.series["rho=0.1 (simulated)"].values
        for a, s in zip(analytic, simulated):
            assert s == pytest.approx(a, abs=0.1)

    def test_delivery_probability_grows_with_chain_length(self, results):
        values = results["eq2"].series["rho=0.1 (analytic)"].values
        assert values == sorted(values)
