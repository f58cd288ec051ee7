"""Error model of the probabilistic checker.

Two analytical results from the paper are implemented here:

* **Equation 1** (Proposition 1): an erroneous "probably covered" verdict
  happens with probability at most ``delta = (1 - rho_w)^d``.  Inverting the
  bound gives the number of random guesses ``d`` required for a target
  error probability, computable *before* running RSPC.

* **Equation 2** (Proposition 5): when a subscription is erroneously
  withheld, the probability that a matching publication is still found
  somewhere along a chain of ``n`` brokers, each receiving the publication
  with probability ``rho``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.utils.validation import require_delta, require_probability

__all__ = [
    "error_probability",
    "required_iterations",
    "compute_required_iterations",
    "effective_error",
    "chain_delivery_probability",
]


def error_probability(rho_w: float, iterations: float) -> float:
    """Upper bound ``(1 - rho_w)^d`` on the false-YES probability (Eq. 1).

    ``rho_w`` is the point-witness probability lower bound and
    ``iterations`` the number of independent random guesses.
    """
    require_probability(rho_w, "rho_w")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if rho_w >= 1.0:
        return 0.0 if iterations >= 1 else 1.0
    if rho_w <= 0.0:
        return 1.0
    return float((1.0 - rho_w) ** iterations)


def required_iterations(delta: float, rho_w: float) -> float:
    """Number of guesses ``d`` so that ``(1 - rho_w)^d <= delta`` (Eq. 1).

    Returns ``math.inf`` when ``rho_w`` is 0 (no witness can ever be
    guessed, so no finite number of trials reaches the bound) and ``1.0``
    when ``rho_w`` is 1 (the first guess already decides).  The value is
    returned as a float because the paper's evaluation plots ``log10(d)``
    values as large as ``10^60``, far beyond any practical iteration count.
    """
    require_probability(rho_w, "rho_w")
    require_delta(delta)
    if rho_w <= 0.0:
        return math.inf
    if rho_w >= 1.0:
        return 1.0
    # ``log1p`` keeps the computation stable for the astronomically small
    # rho_w values produced by high-dimensional instances (Figure 7 plots
    # log10(d) values beyond 50).
    denominator = math.log1p(-rho_w)
    if denominator == 0.0:
        return math.inf
    d = math.log(delta) / denominator
    return float(math.ceil(d))


def compute_required_iterations(
    delta: float, rho_w: float, max_iterations: Optional[int] = None
) -> int:
    """Practical integer version of :func:`required_iterations`.

    Caps the theoretical ``d`` at ``max_iterations`` when provided (or at
    ``2**31 - 1`` otherwise) so callers can size loops safely.
    """
    cap = float(max_iterations) if max_iterations is not None else float(2**31 - 1)
    d = required_iterations(delta, rho_w)
    return int(min(d, cap))


def effective_error(rho_w: float, iterations_performed: int) -> float:
    """Residual error bound after actually performing some iterations.

    Identical to :func:`error_probability` but tolerant of the degenerate
    ``rho_w = 0`` case, for reporting purposes.
    """
    if rho_w <= 0.0:
        return 1.0
    return error_probability(min(rho_w, 1.0), iterations_performed)


def chain_delivery_probability(
    rho: float,
    delta: float,
    brokers: int,
) -> float:
    """Probability of finding a matching publication along a broker chain.

    Implements Equation 2 of the paper: subscription ``s`` was erroneously
    declared covered at broker ``B_1`` and therefore not forwarded along the
    chain ``B_1 … B_n``.  Each broker independently receives a matching
    publication with probability ``rho``; at each broker the erroneous
    decision is repeated independently with probability ``delta`` (the Eq. 1
    bound, written ``(1 - rho_w)^d`` in the paper).  The sum

    ``sum_{i=1..n} rho * [(1 - rho) * (1 - delta_complement)]^(i-1)``

    where ``delta_complement = (1 - (1 - rho_w)^d)`` is the probability the
    error is *not* repeated, gives the lower bound on the probability that
    the publication is still matched somewhere along the chain.

    Parameters
    ----------
    rho:
        Probability a matching publication is issued at any given broker.
    delta:
        Error probability of a single subsumption decision
        (``(1 - rho_w)^d``).
    brokers:
        Chain length ``n``.
    """
    require_probability(rho, "rho")
    require_probability(delta, "delta")
    if brokers < 1:
        raise ValueError("brokers must be at least 1")
    detection = 1.0 - delta  # probability the erroneous decision is not repeated
    total = 0.0
    factor = (1.0 - rho) * detection
    term = 1.0
    for _ in range(brokers):
        total += rho * term
        term *= factor
    return float(min(total, 1.0))
