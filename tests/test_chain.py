"""Unit tests for :mod:`repro.broker.chain` (Proposition 5 / Eq. 2)."""

import pytest

from repro.broker.chain import ChainModel, simulate_chain_delivery
from repro.core.error_model import chain_delivery_probability, error_probability


class TestChainModel:
    def test_per_decision_error_is_equation_one(self):
        model = ChainModel(rho=0.1, rho_w=0.05, d=50, brokers=8)
        assert model.per_decision_error == pytest.approx(error_probability(0.05, 50))

    def test_delivery_probability_matches_closed_form(self):
        model = ChainModel(rho=0.2, rho_w=0.1, d=20, brokers=5)
        expected = chain_delivery_probability(
            0.2, error_probability(0.1, 20), 5
        )
        assert model.delivery_probability() == pytest.approx(expected)

    def test_delivery_probability_is_monotone_in_chain_length(self):
        values = [
            ChainModel(rho=0.1, rho_w=0.05, d=100, brokers=length).delivery_probability()
            for length in (1, 2, 4, 8, 16)
        ]
        assert values == sorted(values)
        assert values[0] == pytest.approx(0.1)

    def test_simulation_close_to_analytic(self):
        model = ChainModel(rho=0.25, rho_w=0.02, d=100, brokers=6)
        analytic = model.delivery_probability()
        simulated = model.simulate(runs=20_000, rng=17)
        assert simulated == pytest.approx(analytic, abs=0.02)

    def test_simulation_with_perfect_decisions(self):
        # With d so large the error is ~0, the subscription always propagates
        # and a long chain almost surely finds the publication.
        model = ChainModel(rho=0.3, rho_w=0.5, d=200, brokers=40)
        assert model.simulate(runs=5_000, rng=3) == pytest.approx(1.0, abs=0.01)


class TestSimulateChainDelivery:
    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simulate_chain_delivery(0.5, 0.5, brokers=0)
        with pytest.raises(ValueError):
            simulate_chain_delivery(0.5, 0.5, brokers=3, runs=0)
        with pytest.raises(ValueError):
            simulate_chain_delivery(1.5, 0.5, brokers=3)

    def test_single_broker_probability_is_rho(self):
        estimate = simulate_chain_delivery(0.4, 0.9, brokers=1, runs=20_000, rng=11)
        assert estimate == pytest.approx(0.4, abs=0.02)

    def test_worse_decisions_lose_more_publications(self):
        good = simulate_chain_delivery(0.1, 0.0, brokers=10, runs=10_000, rng=5)
        bad = simulate_chain_delivery(0.1, 0.9, brokers=10, runs=10_000, rng=5)
        assert good > bad

    def test_reproducible_with_seed(self):
        a = simulate_chain_delivery(0.2, 0.1, brokers=5, runs=1_000, rng=42)
        b = simulate_chain_delivery(0.2, 0.1, brokers=5, runs=1_000, rng=42)
        assert a == b
