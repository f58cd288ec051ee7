"""Network-wide traffic, delivery and latency metrics.

Since the observability PR the counters of :class:`NetworkMetrics` are
backed by :class:`~repro.obs.instruments.InstrumentRegistry` instruments:
each counter is a registry :class:`~repro.obs.instruments.Counter`
exposed through a generated property, so every ``metrics.notifications
+= 1`` call site is unchanged while one registry becomes the single
source of truth for the run's metrics (shared with the probe layer when
a probe is attached, private otherwise).  The numeric values, snapshot
semantics and summary dictionaries are byte-identical to the pre-registry
dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.broker.messages import NotificationRecord
from repro.obs.instruments import InstrumentRegistry

__all__ = ["MetricsSnapshot", "NetworkMetrics"]

#: snapshot fields that support interval bookkeeping but are not counter
#: deltas — excluded from :meth:`MetricsSnapshot.diff` output so the
#: per-phase metric dictionaries of latency-free runs are unchanged
_BOOKKEEPING_FIELDS = (
    "delivery_latency_count",
    "queue_depth_high_water",
    "missed_count",
)

#: counters that only the merging strategies can move — reported in phase
#: diffs and summaries only when non-zero, so the metric dictionaries of
#: covering-policy runs are byte-identical to what they always were
_REDUCTION_FIELDS = (
    "false_positive_notifications",
    "merged_advertisements",
    "merge_false_volume",
    "dead_letter_publications",
)


#: the stable shape every latency summary has — an empty sample reports
#: all-zeros rather than silently dropping the keys, so downstream report
#: consumers never have to guard against a missing percentile column
_EMPTY_LATENCY_STATS = {
    "delivery_latency_p50": 0.0,
    "delivery_latency_p95": 0.0,
    "delivery_latency_p99": 0.0,
    "delivery_latency_mean": 0.0,
    "delivery_latency_max": 0.0,
}


def _latency_stats(latencies: Sequence[float]) -> Dict[str, float]:
    """Percentile summary of a latency sample (all zeros when empty)."""
    if not len(latencies):
        return dict(_EMPTY_LATENCY_STATS)
    array = np.asarray(latencies, dtype=float)
    p50, p95, p99 = np.percentile(array, (50.0, 95.0, 99.0))
    return {
        "delivery_latency_p50": round(float(p50), 6),
        "delivery_latency_p95": round(float(p95), 6),
        "delivery_latency_p99": round(float(p99), 6),
        "delivery_latency_mean": round(float(array.mean()), 6),
        "delivery_latency_max": round(float(array.max()), 6),
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time copy of the :class:`NetworkMetrics` counters.

    Snapshots make per-phase accounting trivial: take one before and one
    after a workload phase and :meth:`diff` them — no manual field
    arithmetic.  Derived quantities (missed notifications, delivery ratio)
    are recomputed from the counter *deltas*, so a phase that delivered
    everything it owed reports a delivery ratio of 1.0 even when earlier
    phases lost notifications.
    """

    subscription_messages: int = 0
    unsubscription_messages: int = 0
    publication_messages: int = 0
    notifications: int = 0
    expected_notifications: int = 0
    suppressed_subscriptions: int = 0
    subsumption_checks: int = 0
    rspc_iterations: int = 0
    #: notifications delivered although the subscriber's own subscription
    #: did not match (merged-filter client-side-filtering cost)
    false_positive_notifications: int = 0
    #: merged bounding boxes advertised in place of exact subscriptions
    merged_advertisements: int = 0
    #: total over-approximated volume introduced by those merges
    merge_false_volume: float = 0.0
    #: publications a neighbour routed to a broker where nothing matched
    dead_letter_publications: int = 0
    #: number of delivery latencies recorded so far (interval bookkeeping)
    delivery_latency_count: int = 0
    #: kernel queue-depth high-water mark at snapshot time
    queue_depth_high_water: int = 0
    #: exact count of missed (expected but undelivered) notifications so
    #: far — bookkeeping; under merging the raw counter difference would
    #: let false positives mask genuine misses
    missed_count: int = 0

    def diff(self, earlier: "MetricsSnapshot") -> Dict[str, float]:
        """Counter deltas from ``earlier`` to this snapshot.

        Returns a plain dictionary with one entry per counter plus the
        derived ``missed_notifications`` and ``delivery_ratio`` of the
        interval.  Bookkeeping fields (latency sample counts, queue
        high-water marks) are omitted, and the merging-only counters
        (false positives, merged advertisements, dead letters) appear
        only when they moved; :meth:`NetworkMetrics.diff` layers the
        latency statistics on top when latency tracking is active.
        """
        delta = {
            spec.name: getattr(self, spec.name) - getattr(earlier, spec.name)
            for spec in fields(self)
        }
        # The exact missed count comes from the oracle bookkeeping; the
        # counter difference is the fallback for metrics maintained by
        # hand.  Under merging the bookkeeping dominates (false positives
        # inflate ``notifications`` and would mask genuine misses).
        missed = max(
            self.missed_count - earlier.missed_count,
            (self.expected_notifications - earlier.expected_notifications)
            - (self.notifications - earlier.notifications),
            0,
        )
        for name in _BOOKKEEPING_FIELDS:
            delta.pop(name, None)
        for name in _REDUCTION_FIELDS:
            if not delta.get(name):
                delta.pop(name, None)
        if "merge_false_volume" in delta:
            delta["merge_false_volume"] = round(delta["merge_false_volume"], 6)
        expected = delta["expected_notifications"]
        delta["missed_notifications"] = missed
        delta["delivery_ratio"] = (
            1.0 if expected == 0 else round((expected - missed) / expected, 6)
        )
        return delta


class NetworkMetrics:
    """Counters accumulated by a :class:`~repro.broker.network.BrokerNetwork`.

    Every counter below lives in an
    :class:`~repro.obs.instruments.InstrumentRegistry` (under
    ``network.<counter name>``) and is exposed as a generated property,
    so attribute reads/writes — including the pervasive ``+=`` call
    sites — behave exactly as the former dataclass fields did.  Pass
    ``registry`` to share the run's single registry with the
    observability layer; by default each instance owns a private one.

    Attributes
    ----------
    subscription_messages:
        Broker-to-broker subscription message hops (the traffic the paper's
        covering optimisations aim to reduce).
    unsubscription_messages:
        Broker-to-broker unsubscription message hops.
    publication_messages:
        Broker-to-broker publication message hops (one per publication per
        link crossed).
    notifications:
        Notifications delivered to local subscribers.
    expected_notifications:
        Notifications a lossless (flooding) system would have delivered,
        computed from the global-oracle matching of every publication
        against every subscription in the system.
    suppressed_subscriptions:
        Per-link forwarding decisions where a broker withheld a subscription
        because it was (probably) covered by what that neighbour already
        knows.
    subsumption_checks:
        Number of per-link covering decisions taken by brokers (including
        the re-advertisement re-checks run when a coverer unsubscribes).
    rspc_iterations:
        Total random guesses spent by the probabilistic checker across the
        network.
    false_positive_notifications:
        Notifications delivered through a merged filter although the
        subscriber's own subscription did not match the publication — the
        imprecision cost of the merging reduction strategies (always 0
        under the covering strategies).
    merged_advertisements:
        Per-link decisions that replaced exact advertisements with a
        merged bounding box.
    merge_false_volume:
        Total over-approximated volume those merges introduced.
    dead_letter_publications:
        Publications a neighbour routed to a broker where nothing matched
        (dead-end traffic attracted by merged advertisements).
    delivery_latencies:
        Virtual-time end-to-end latency of every delivered notification,
        in delivery order (all 0.0 under the zero latency model).
    queue_depth_high_water:
        Deepest the kernel's pending-delivery queue ever got.
    track_latency:
        Whether latency statistics belong in summaries and phase diffs
        (set by the network when a non-default latency model is active, so
        latency-free runs keep their historical metric dictionaries).
    """

    #: registry-backed counters (``network.<name>`` Counter instruments)
    _COUNTER_FIELDS = (
        "subscription_messages",
        "unsubscription_messages",
        "publication_messages",
        "notifications",
        "expected_notifications",
        "suppressed_subscriptions",
        "subsumption_checks",
        "rspc_iterations",
        "false_positive_notifications",
        "merged_advertisements",
        "merge_false_volume",
        "dead_letter_publications",
    )
    #: registry-backed levels (``network.<name>`` Gauge instruments)
    _GAUGE_FIELDS = (
        "queue_depth_high_water",
        # high-water mark of the current phase interval (reset at each
        # :meth:`~repro.broker.network.BrokerNetwork.mark_phase`)
        "phase_queue_depth_high_water",
    )

    def __init__(
        self,
        track_latency: bool = False,
        registry: Optional[InstrumentRegistry] = None,
    ):
        self.registry = registry if registry is not None else InstrumentRegistry()
        self.track_latency = track_latency
        self._counters = {
            name: self.registry.counter(f"network.{name}")
            for name in self._COUNTER_FIELDS
        }
        self._gauges = {
            name: self.registry.gauge(f"network.{name}")
            for name in self._GAUGE_FIELDS
        }
        #: delivery-latency samples live in a registry histogram; the
        #: :attr:`delivery_latencies` property exposes its raw sample
        #: list, so in-order extends and index slicing keep working
        self._latency_histogram = self.registry.histogram(
            "network.delivery_latency"
        )
        self.delivered: List[NotificationRecord] = []
        self.missed: List[NotificationRecord] = []
        #: delivered notifications whose subscription did not actually
        #: match the publication (merged-filter false positives)
        self.false_positives: List[NotificationRecord] = []

    @property
    def delivery_latencies(self) -> List[float]:
        """The delivery-latency sample list, in delivery order."""
        return self._latency_histogram.samples

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"NetworkMetrics(notifications={self.notifications}, "
            f"expected={self.expected_notifications}, "
            f"track_latency={self.track_latency})"
        )

    @property
    def delivery_ratio(self) -> float:
        """Fraction of *owed* notifications delivered (1.0 when none owed).

        False-positive deliveries do not count toward the ratio, so a
        merging run cannot mask misses with spurious traffic.
        """
        if self.expected_notifications == 0:
            return 1.0
        owed = self.expected_notifications
        return (owed - self.missed_notifications) / owed

    @property
    def missed_notifications(self) -> int:
        """Expected notifications that never reached their subscriber.

        The oracle's missed list is exact; the counter difference is the
        fallback for hand-maintained metrics (false positives inflate
        ``notifications``, so under merging the list dominates).
        """
        return max(
            len(self.missed),
            self.expected_notifications - self.notifications,
            0,
        )

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of the current counters."""
        return MetricsSnapshot(
            subscription_messages=self.subscription_messages,
            unsubscription_messages=self.unsubscription_messages,
            publication_messages=self.publication_messages,
            notifications=self.notifications,
            expected_notifications=self.expected_notifications,
            suppressed_subscriptions=self.suppressed_subscriptions,
            subsumption_checks=self.subsumption_checks,
            rspc_iterations=self.rspc_iterations,
            false_positive_notifications=self.false_positive_notifications,
            merged_advertisements=self.merged_advertisements,
            merge_false_volume=self.merge_false_volume,
            dead_letter_publications=self.dead_letter_publications,
            delivery_latency_count=len(self.delivery_latencies),
            queue_depth_high_water=self.queue_depth_high_water,
            missed_count=len(self.missed),
        )

    def diff(self, earlier: MetricsSnapshot) -> Dict[str, float]:
        """Counter deltas since ``earlier`` (see :meth:`MetricsSnapshot.diff`).

        When latency tracking is active the interval's delivery-latency
        percentiles and the kernel queue high-water mark are included as
        well.  Note that
        ``queue_depth_high_water`` is the high-water of the *current phase
        interval* (since the owning network's last ``mark_phase``), not of
        the span back to ``earlier``: interval maxima are only tracked at
        phase granularity, and the runner always diffs against the latest
        phase snapshot.  All other keys genuinely span ``earlier`` → now.
        """
        delta = self.snapshot().diff(earlier)
        if self.track_latency:
            delta.update(
                _latency_stats(
                    self.delivery_latencies[earlier.delivery_latency_count:]
                )
            )
            delta["queue_depth_high_water"] = self.phase_queue_depth_high_water
        return delta

    def latency_histogram(
        self, bins: int = 20
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Histogram of the delivery latencies: ``(counts, bin edges)``."""
        if not self.delivery_latencies:
            return np.zeros(bins, dtype=int), np.linspace(0.0, 1.0, bins + 1)
        return np.histogram(np.asarray(self.delivery_latencies), bins=bins)

    def summary(self) -> Dict[str, float]:
        """Compact dictionary view used by the experiment reports."""
        summary = {
            "subscription_messages": self.subscription_messages,
            "unsubscription_messages": self.unsubscription_messages,
            "publication_messages": self.publication_messages,
            "notifications": self.notifications,
            "expected_notifications": self.expected_notifications,
            "missed_notifications": self.missed_notifications,
            "delivery_ratio": round(self.delivery_ratio, 6),
            "suppressed_subscriptions": self.suppressed_subscriptions,
            "subsumption_checks": self.subsumption_checks,
            "rspc_iterations": self.rspc_iterations,
        }
        if self.track_latency:
            summary.update(_latency_stats(self.delivery_latencies))
            summary["queue_depth_high_water"] = self.queue_depth_high_water
        if self.merged_advertisements:
            summary["merged_advertisements"] = self.merged_advertisements
            summary["merge_false_volume"] = round(self.merge_false_volume, 6)
        if self.false_positive_notifications:
            summary["false_positive_notifications"] = (
                self.false_positive_notifications
            )
        if self.dead_letter_publications:
            summary["dead_letter_publications"] = self.dead_letter_publications
        return summary


def _counter_property(name: str) -> property:
    def _get(self: NetworkMetrics):
        return self._counters[name].value

    def _set(self: NetworkMetrics, value) -> None:
        self._counters[name].value = value

    return property(_get, _set, doc=f"Registry-backed counter ``network.{name}``.")


def _gauge_property(name: str) -> property:
    def _get(self: NetworkMetrics):
        return self._gauges[name].value

    def _set(self: NetworkMetrics, value) -> None:
        self._gauges[name].value = value

    return property(_get, _set, doc=f"Registry-backed gauge ``network.{name}``.")


for _name in NetworkMetrics._COUNTER_FIELDS:
    setattr(NetworkMetrics, _name, _counter_property(_name))
for _name in NetworkMetrics._GAUGE_FIELDS:
    setattr(NetworkMetrics, _name, _gauge_property(_name))
del _name
