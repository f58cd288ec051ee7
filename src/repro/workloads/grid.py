"""Grid resource-discovery workload (Section 3, Table 2).

Services announce their capabilities through subscriptions (CPU cycles,
disk, memory, service domain, availability window); jobs publish their
requirements.  A match means the job can be scheduled on the service.
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
from repro.model.intervals import Interval
from repro.model.publications import Publication
from repro.model.schema import Schema
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng

__all__ = ["grid_schema", "GridWorkload", "SERVICE_DOMAINS"]

#: ordered service domains (``a.service.org`` … in Table 2)
SERVICE_DOMAINS = (
    "a.service.org",
    "b.service.org",
    "c.service.org",
    "d.compute.org",
    "e.compute.org",
    "f.storage.org",
)


def grid_schema(day: str = "2006-03-31") -> Schema:
    """The Table 2 attribute space for Grid resource discovery."""
    return Schema(
        [
            Attribute("CPUcycles", IntegerDomain(500, 10_000), "available MHz"),
            Attribute("disk", IntegerDomain(1, 1_000), "available disk (kB)"),
            Attribute("memory", IntegerDomain(1, 64), "available memory (GB)"),
            Attribute("service", CategoricalDomain(SERVICE_DOMAINS), "service domain"),
            Attribute(
                "time",
                TimestampDomain(
                    f"{day}T00:00:00", f"{day}T23:59:59", granularity_seconds=60
                ),
                "availability window",
            ),
        ],
        name="grid-discovery",
    )


#: service classes and their nominal capability envelopes
#: (CPU MHz range, disk kB range, max memory GB)
SERVICE_CLASSES = {
    "small": ((500, 2_500), (1, 100), 8),
    "medium": ((2_000, 6_000), (50, 500), 32),
    "large": ((5_000, 10_000), (200, 1_000), 64),
    "general": ((500, 10_000), (1, 1_000), 64),
}


@dataclass
class GridWorkload:
    """Generator of Grid service subscriptions and job publications.

    Services belong to a small number of capability classes (small, medium,
    large plus a few general-purpose machines) with per-service jitter,
    mirroring how real clusters are provisioned.  The class structure makes
    service announcements overlap and cover each other — the situation in
    which the paper's group subsumption pays off for resource discovery.
    """

    schema: Schema = None  # type: ignore[assignment]
    rng: RandomSource = None
    #: fraction of general-purpose services (they cover the class-specific ones)
    general_fraction: float = 0.2
    #: fraction of services available around the clock
    always_on_fraction: float = 0.6

    def __post_init__(self) -> None:
        if self.schema is None:
            self.schema = grid_schema()
        self._rng = ensure_rng(self.rng)
        #: where job requirements fall: any service domain, any minute
        self._job_box = Subscription.from_constraints(
            self.schema,
            {"CPUcycles": (500, 10_000), "disk": (1, 1_000), "memory": (1, 64)},
        )

    # ------------------------------------------------------------------
    # Service announcements (subscriptions)
    # ------------------------------------------------------------------
    def service_subscription(
        self, service_id: Optional[str] = None, subscription_id: Optional[str] = None
    ) -> Subscription:
        """A service announcing the job profiles it can accept."""
        rng = self._rng
        if rng.random() < self.general_fraction:
            class_name = "general"
        else:
            class_name = ("small", "medium", "large")[int(rng.integers(0, 3))]
        (cpu_lo, cpu_hi), (disk_lo, disk_hi), memory_max = SERVICE_CLASSES[class_name]

        def jitter(low: int, high: int, spread: float = 0.1):
            width = high - low
            wobble_low = int(rng.integers(0, max(int(width * spread), 1) + 1))
            wobble_high = int(rng.integers(0, max(int(width * spread), 1) + 1))
            return low + wobble_low, high - wobble_high

        cpu_low, cpu_high = jitter(cpu_lo, cpu_hi)
        disk_low, disk_high = jitter(disk_lo, disk_hi)
        memory_high = max(1, memory_max - int(rng.integers(0, max(memory_max // 8, 1))))
        domain_index = int(rng.integers(0, len(SERVICE_DOMAINS)))

        time_domain = self.schema.domain("time")
        day_start = int(time_domain.lower_bound)
        day_end = int(time_domain.upper_bound)
        if rng.random() < self.always_on_fraction:
            window = Interval(float(day_start), float(day_end))
        else:
            window_minutes = int(rng.integers(4 * 60, 18 * 60))
            window_start = int(
                rng.integers(day_start, max(day_end - window_minutes, day_start) + 1)
            )
            window = Interval(
                float(window_start), float(window_start + window_minutes)
            )
        return Subscription.from_constraints(
            self.schema,
            {
                "CPUcycles": (cpu_low, max(cpu_high, cpu_low)),
                "disk": (disk_low, max(disk_high, disk_low)),
                "memory": (1, memory_high),
                "service": SERVICE_DOMAINS[domain_index],
                "time": window,
            },
            subscription_id=subscription_id,
            subscriber=service_id,
            metadata={"service_class": class_name},
        )

    def service_subscriptions(
        self, count: int, prefix: str = "service"
    ) -> List[Subscription]:
        """``count`` service announcements."""
        return [
            self.service_subscription(service_id=f"{prefix}-{index + 1}")
            for index in range(count)
        ]

    # ------------------------------------------------------------------
    # Job requests (publications)
    # ------------------------------------------------------------------
    def job_points(self, count: int) -> np.ndarray:
        """``count`` encoded job requirements, one per row.

        A job draws every attribute uniformly from a fixed box of the
        schema, attribute by attribute, so a run of jobs is one
        :meth:`Subscription.sample_points` call — the stream of ``count``
        single jobs.
        """
        return self._job_box.sample_points(self._rng, count)

    def job_publication(self, job_id: Optional[str] = None) -> Publication:
        """A job describing the resources it needs."""
        return Publication(self.schema, self.job_points(1)[0], publisher=job_id)

    def job_publications(self, count: int, prefix: str = "job") -> List[Publication]:
        """``count`` job requests."""
        return Publication.from_matrix(
            self.schema,
            self.job_points(count),
            publishers=[f"{prefix}-{index + 1}" for index in range(count)],
        )

    def matching_job(
        self, service: Subscription, job_id: Optional[str] = None
    ) -> Publication:
        """A job request guaranteed to fit the given service announcement."""
        values = service.sample_point(self._rng)
        return Publication(self.schema, values, publisher=job_id)
