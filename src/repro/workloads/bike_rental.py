"""The sensor-enriched bicycle rental workload (Section 3, Table 1).

The motivating scenario of the paper: rental posts publish the bicycles
they detect in their vicinity; registered users subscribe with their rental
preferences extended by contextual information.  The schema mirrors
Table 1: bike identifier, frame size, brand, rental-post identifier and a
time window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.model.attributes import (
    Attribute,
    CategoricalDomain,
    IntegerDomain,
    TimestampDomain,
)
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["bike_rental_schema", "BikeRentalWorkload", "BRANDS"]

#: bicycle brands available in the rental fleet (ordered, finite set)
BRANDS = ("X", "Y", "Z", "W", "V")


def bike_rental_schema(
    day: str = "2006-03-31",
    posts: int = 1_000,
    bikes: int = 10_000,
) -> Schema:
    """The Table 1 attribute space for one rental day.

    Attributes: ``bID`` (bike identifier range encoding the bike category),
    ``size`` (frame size in inches), ``brand`` (finite label set), ``rpID``
    (rental-post identifier encoding an area) and ``date`` (time window at
    one-minute granularity).
    """
    return Schema(
        [
            Attribute("bID", IntegerDomain(1, bikes), "bike identifier / category"),
            Attribute("size", IntegerDomain(14, 23), "frame size in inches"),
            Attribute("brand", CategoricalDomain(BRANDS), "bicycle brand"),
            Attribute("rpID", IntegerDomain(1, posts), "rental post identifier"),
            Attribute(
                "date",
                TimestampDomain(
                    f"{day}T00:00:00", f"{day}T23:59:59", granularity_seconds=60
                ),
                "availability window",
            ),
        ],
        name="bike-rental",
    )


@dataclass
class BikeRentalWorkload:
    """Generator of bike-rental subscriptions and publications.

    Subscriptions model user preferences (a bike-category range, a size
    range, optionally a brand, an area of rental posts and a time window);
    publications model a rental post detecting an available bicycle.

    The generator follows the paper's "similar but not equal interests"
    assumption: users cluster around a handful of popular rental areas and
    bike categories, and a fraction of them have *broad* preferences (any
    brand, any size, whole day, large area).  The structure is what makes
    subscription covering — pair-wise and group-wise — actually occur, as
    it would in a real deployment.
    """

    schema: Schema = None  # type: ignore[assignment]
    rng: RandomSource = None
    #: number of popular rental areas users cluster around
    hotspot_count: int = 10
    #: fraction of users with broad, covering-friendly preferences
    broad_user_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.schema is None:
            self.schema = bike_rental_schema()
        self._rng = ensure_rng(self.rng)
        posts = int(self.schema.domain("rpID").upper_bound)
        self._hotspots = self._rng.integers(1, posts + 1, size=self.hotspot_count)
        bikes = int(self.schema.domain("bID").upper_bound)
        #: bike categories are contiguous identifier blocks (e.g. city bikes,
        #: mountain bikes, ...), mirroring the paper's bID interpretation
        self._category_width = max(bikes // 10, 1)
        #: what rental posts announce: any brand, any minute of the day
        self._announcement_box = Subscription.from_constraints(
            self.schema, {"bID": (1, bikes), "size": (14, 23), "rpID": (1, posts)}
        )

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscription(
        self, subscriber: Optional[str] = None, subscription_id: Optional[str] = None
    ) -> Subscription:
        """A random user preference subscription."""
        rng = self._rng
        bid_domain = self.schema.domain("bID")
        post_domain = self.schema.domain("rpID")
        date_domain = self.schema.domain("date")
        bikes = int(bid_domain.upper_bound)
        posts = int(post_domain.upper_bound)
        day_start = int(date_domain.lower_bound)
        day_end = int(date_domain.upper_bound)

        hotspot = int(self._hotspots[int(rng.integers(0, len(self._hotspots)))])
        broad = rng.random() < self.broad_user_fraction

        constraints = {}
        if broad:
            # Broad preferences: any bike of a whole category group (or any
            # bike at all), any usual size, any brand, a large area around a
            # popular hotspot and (mostly) the whole day.
            if rng.random() < 0.5:
                constraints["bID"] = (1, bikes)
            else:
                block = int(rng.integers(0, 5)) * 2 * self._category_width + 1
                constraints["bID"] = (block, min(block + 2 * self._category_width, bikes))
            constraints["size"] = (14, 23) if rng.random() < 0.5 else (16, 21)
            area = int(rng.integers(100, 300))
            constraints["rpID"] = (
                max(1, hotspot - area),
                min(posts, hotspot + area),
            )
            if rng.random() < 0.3:
                window = (day_start, day_end)
            else:
                start = day_start + int(rng.integers(0, 6 * 60))
                window = (start, min(day_end, start + 16 * 60))
            constraints["date"] = self._window(window[0], window[1] - window[0])
        else:
            # Specific preferences: one category block (or a slice of it),
            # a narrow size range, often a brand, a small area around a
            # hotspot and a few-hour window.
            block = int(rng.integers(0, 10)) * self._category_width + 1
            if rng.random() < 0.5:
                constraints["bID"] = (block, min(block + self._category_width - 1, bikes))
            else:
                offset = int(rng.integers(0, self._category_width // 2))
                constraints["bID"] = (
                    block + offset,
                    min(block + offset + self._category_width // 2, bikes),
                )
            size_low = int(rng.integers(16, 21))
            constraints["size"] = (size_low, min(size_low + int(rng.integers(0, 3)), 23))
            area = int(rng.integers(5, 60))
            constraints["rpID"] = (
                max(1, hotspot - area),
                min(posts, hotspot + area),
            )
            window_minutes = int(rng.integers(60, 8 * 60))
            window_start = int(
                rng.integers(day_start, max(day_end - window_minutes, day_start) + 1)
            )
            constraints["date"] = self._window(window_start, window_minutes)
            if rng.random() < 0.6:
                constraints["brand"] = BRANDS[int(rng.integers(0, len(BRANDS)))]
        return Subscription.from_constraints(
            self.schema,
            constraints,
            subscription_id=subscription_id,
            subscriber=subscriber,
        )

    def _window(self, start_tick: int, minutes: int):
        from repro.model.intervals import Interval

        return Interval(float(start_tick), float(start_tick + minutes))

    def subscriptions(self, count: int, prefix: str = "user") -> List[Subscription]:
        """``count`` subscriptions attributed to numbered subscribers."""
        return [
            self.subscription(subscriber=f"{prefix}-{index + 1}")
            for index in range(count)
        ]

    # ------------------------------------------------------------------
    # Publications
    # ------------------------------------------------------------------
    def publication_points(self, count: int) -> np.ndarray:
        """``count`` encoded bicycle announcements, one per row.

        An announcement draws every attribute uniformly from a fixed box
        of the schema, attribute by attribute, so a run of them is one
        :meth:`Subscription.sample_points` call — the stream of ``count``
        single announcements.
        """
        return self._announcement_box.sample_points(self._rng, count)

    def publication(self, publisher: Optional[str] = None) -> Publication:
        """A rental post announcing an available bicycle."""
        return Publication(
            self.schema, self.publication_points(1)[0], publisher=publisher
        )

    def publications(self, count: int, prefix: str = "post") -> List[Publication]:
        """``count`` publications attributed to numbered rental posts."""
        return Publication.from_matrix(
            self.schema,
            self.publication_points(count),
            publishers=[f"{prefix}-{index + 1}" for index in range(count)],
        )

    def matching_publication(
        self, subscription: Subscription, publisher: Optional[str] = None
    ) -> Publication:
        """A publication guaranteed to match ``subscription``.

        Models a rental post inside the subscriber's area announcing a
        bicycle from the requested category during the requested window —
        the event the subscriber is waiting for.
        """
        values = subscription.sample_point(self._rng)
        return Publication(self.schema, values, publisher=publisher)
