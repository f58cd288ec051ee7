"""Broker-chain delivery model (Proposition 5 / Eq. 2).

Section 5 analyses the impact of an erroneous covering decision on a chain
of brokers ``B_1 … B_n``: the new subscription ``s`` issued at ``B_1`` was
(wrongly) declared covered, so it only travels further down the chain when
subsequent brokers do *not* repeat the error; meanwhile a matching
publication is issued at each broker independently with probability
``rho``.  Equation 2 gives the probability that the publication is still
found:

``P = sum_{i=1..n} rho * [(1 - rho) * (1 - delta)]^(i-1)``

with ``delta = (1 - rho_w)^d`` the per-decision error bound of Eq. 1.

This module exposes the analytic value (delegating to
:func:`repro.core.error_model.chain_delivery_probability`) together with a
Monte Carlo simulation of the same abstract process, which the tests use to
validate the closed form and which the Eq. 2 benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error_model import chain_delivery_probability, error_probability
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_probability

__all__ = ["ChainModel", "simulate_chain_delivery"]


def simulate_chain_delivery(
    rho: float,
    delta: float,
    brokers: int,
    runs: int = 10_000,
    rng: RandomSource = None,
) -> float:
    """Monte Carlo estimate of the Eq. 2 delivery probability.

    Each run walks the chain broker by broker: the publication appears at a
    broker with probability ``rho``; the subscription keeps propagating past
    a broker with probability ``1 - delta`` (the covering error is not
    repeated).  The run succeeds when the publication first appears at a
    broker the subscription has reached.
    """
    require_probability(rho, "rho")
    require_probability(delta, "delta")
    if brokers < 1:
        raise ValueError("brokers must be at least 1")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    generator = ensure_rng(rng)
    successes = 0
    for _ in range(runs):
        reached = True  # the subscription is present at B_1 by construction
        for position in range(brokers):
            if generator.random() < rho:
                # The publication enters the network at this broker.
                if reached:
                    successes += 1
                break
            # The publication was not issued here; the subscription only
            # continues down the chain when the covering error is not
            # repeated at the next broker.
            if generator.random() < delta:
                reached = False
    return successes / runs


@dataclass(frozen=True)
class ChainModel:
    """Closed-form + simulated view of the Proposition 5 chain.

    Parameters
    ----------
    rho:
        Probability a matching publication is issued at any given broker
        (determined by network density / communication distance).
    rho_w:
        Point-witness probability of the subsumption instance.
    d:
        Number of RSPC trials performed per decision.
    brokers:
        Chain length ``n``.
    """

    rho: float
    rho_w: float
    d: float
    brokers: int

    @property
    def per_decision_error(self) -> float:
        """The Eq. 1 bound ``(1 - rho_w)^d`` for a single decision."""
        return error_probability(self.rho_w, self.d)

    def delivery_probability(self) -> float:
        """The Eq. 2 lower bound on finding the matching publication."""
        return chain_delivery_probability(
            self.rho, self.per_decision_error, self.brokers
        )

    def simulate(self, runs: int = 10_000, rng: RandomSource = None) -> float:
        """Monte Carlo estimate of the same probability."""
        return simulate_chain_delivery(
            self.rho, self.per_decision_error, self.brokers, runs=runs, rng=rng
        )
