"""Popularity and size distributions used by the comparison workload.

Section 6.4 of the paper simulates a realistic subscription stream with
power-law popularity: attributes are selected with a Zipf distribution
(skew 2.0), range centres follow a Pareto distribution (skew 1.0) to model
similar interests, and range sizes follow a normal distribution.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import require_positive

__all__ = ["zipf_weights", "pareto_center", "normal_width"]


def zipf_weights(count: int, skew: float = 2.0) -> np.ndarray:
    """Normalised Zipf probabilities for ``count`` ranks.

    Rank ``r`` (1-based) receives weight proportional to ``1 / r**skew``.
    """
    require_positive(count, "count")
    require_positive(skew, "skew")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = 1.0 / np.power(ranks, skew)
    return weights / weights.sum()


def pareto_center(
    lower: float,
    upper: float,
    skew: float = 1.0,
    rng: RandomSource = None,
) -> float:
    """Sample a range centre with a Pareto(skew) bias toward ``lower``.

    The heavy-tailed Pareto sample is folded into the ``[lower, upper]``
    domain so that most centres cluster near the popular (low) end of the
    domain, modelling "similar interests".
    """
    if upper < lower:
        raise ValueError("upper must not be smaller than lower")
    require_positive(skew, "skew")
    generator = ensure_rng(rng)
    raw = generator.pareto(skew)  # >= 0, heavy tailed
    # Fold the tail back into [0, 1): values beyond 1 wrap around so the
    # domain stays fully reachable while staying low-biased.
    fraction = raw % 1.0
    return lower + fraction * (upper - lower)


def normal_width(
    mean: float,
    std: float,
    minimum: float = 1.0,
    maximum: float = float("inf"),
    rng: RandomSource = None,
) -> float:
    """Sample a range width from a clipped normal distribution."""
    require_positive(mean, "mean")
    if std < 0:
        raise ValueError("std must be non-negative")
    generator = ensure_rng(rng)
    width = generator.normal(mean, std)
    return float(min(max(abs(width), minimum), maximum))
