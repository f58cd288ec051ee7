"""The realistic comparison workload (Section 6.4).

The paper simulates a realistic setting with power-law popularity: popular
attributes are chosen with a Zipf distribution (skew 2.0), range centres
follow a Pareto distribution (skew 1.0) to model "similar interests", and
range sizes follow a normal distribution.  The resulting subscription
stream is used to compare the growth of the active subscription set under
pair-wise and group covering (Figures 13 and 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng
from repro.workloads.distributions import normal_width, pareto_center, zipf_weights

__all__ = ["ComparisonWorkload"]


@dataclass
class ComparisonWorkload:
    """Stream of popularity-skewed subscriptions over a uniform schema.

    Parameters
    ----------
    schema:
        The attribute space (the paper uses ``m`` ∈ {10, 15, 20} identical
        integer attributes).
    attribute_skew:
        Zipf skew of attribute popularity (2.0 in the paper).
    center_skew:
        Pareto skew of the range-centre distribution (1.0 in the paper).
    width_mean_fraction / width_std_fraction:
        Mean and standard deviation of the constrained range width,
        relative to the attribute's extent.
    broad_interest_probability:
        Probability that a constrained attribute takes a *broad* range
        (30–90 % of the domain) instead of a narrow one, modelling general
        interests; broad subscriptions are what makes covering possible in
        the first place.
    constrained_fraction:
        Maximum fraction of the ``m`` attributes a subscription constrains;
        the actual number is uniform between 1 and that maximum, so the
        stream mixes very general subscriptions (few constraints) with
        specific ones — the "similar but not equal interests" the paper
        simulates.
    rng:
        Seed or generator for the stream.
    """

    schema: Schema
    attribute_skew: float = 2.0
    center_skew: float = 1.0
    width_mean_fraction: float = 0.2
    width_std_fraction: float = 0.15
    broad_interest_probability: float = 0.1
    constrained_fraction: float = 0.6
    rng: RandomSource = None

    def __post_init__(self) -> None:
        self._rng = ensure_rng(self.rng)
        self._weights = zipf_weights(self.schema.m, self.attribute_skew)

    # ------------------------------------------------------------------
    # Subscription stream
    # ------------------------------------------------------------------
    def subscription(
        self, subscriber: Optional[str] = None, subscription_id: Optional[str] = None
    ) -> Subscription:
        """Generate the next subscription of the stream."""
        m = self.schema.m
        maximum = max(1, int(round(self.constrained_fraction * m)))
        count = int(self._rng.integers(1, maximum + 1))
        # Zipf-weighted choice of which attributes the subscription
        # constrains; popular attributes appear in most subscriptions.
        chosen = self._rng.choice(m, size=min(count, m), replace=False, p=self._weights)
        lows, highs = (bound.copy() for bound in self.schema.full_bounds())
        for attribute in chosen:
            domain = self.schema.domain(int(attribute))
            extent = domain.upper_bound - domain.lower_bound
            center = pareto_center(
                domain.lower_bound, domain.upper_bound, self.center_skew, self._rng
            )
            if self._rng.random() < self.broad_interest_probability:
                width = extent * float(self._rng.uniform(0.3, 0.9))
            else:
                width = normal_width(
                    mean=self.width_mean_fraction * extent,
                    std=self.width_std_fraction * extent,
                    minimum=1.0,
                    maximum=extent,
                    rng=self._rng,
                )
            low = max(domain.lower_bound, center - width / 2.0)
            high = min(domain.upper_bound, center + width / 2.0)
            low = float(int(low))
            high = float(int(high))
            lows[int(attribute)] = low
            highs[int(attribute)] = max(high, low)
        return Subscription(
            self.schema,
            lows,
            highs,
            subscription_id=subscription_id,
            subscriber=subscriber,
        )

    def subscriptions(self, count: int) -> List[Subscription]:
        """Generate ``count`` subscriptions."""
        return [self.subscription() for _ in range(count)]

    def stream(self, count: int) -> Iterator[Subscription]:
        """Lazily generate ``count`` subscriptions."""
        for _ in range(count):
            yield self.subscription()

    # ------------------------------------------------------------------
    # Publication stream
    # ------------------------------------------------------------------
    def publication_points(self, count: int) -> np.ndarray:
        """``count`` encoded points from the same popularity model, one per row.

        Values follow the same Pareto-centred popularity as the
        subscription centres, so published content tends to fall where the
        subscriptions are.  Every coordinate is its own Pareto draw, point
        by point in attribute order.
        """
        points = np.empty((count, self.schema.m), dtype=float)
        domains = self.schema.domains
        for point in points:
            for attribute, domain in enumerate(domains):
                value = pareto_center(
                    domain.lower_bound, domain.upper_bound, self.center_skew, self._rng
                )
                point[attribute] = float(int(value))
        return points

    def publication(self, publisher: Optional[str] = None) -> Publication:
        """A publication drawn from the same popularity model."""
        return Publication(
            self.schema, self.publication_points(1)[0], publisher=publisher
        )

    def publications(self, count: int) -> List[Publication]:
        """Generate ``count`` publications."""
        return Publication.from_matrix(self.schema, self.publication_points(count))
