"""Network-wide traffic, delivery and latency metrics.

Every counter of a :class:`NetworkMetrics` is an
:class:`~repro.obs.instruments.InstrumentRegistry` counter named
``network.<name>``, one per name in :data:`COUNTERS`; the delivery
latencies and the per-operation queue-depth high-water marks are
registry histograms.  The network's hot sites add to the
:class:`~repro.obs.instruments.Counter` objects in
:attr:`NetworkMetrics.counters`.

A report — one phase's metrics or a run's totals — is
:meth:`NetworkMetrics.report` of one
:meth:`~repro.obs.instruments.InstrumentRegistry.diff`: the diff from a
phase's mark (a registry ``snapshot``), or from zero for totals.  Each
metrics object owns its registry, so two networks alive at once never
count into each other.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.broker.messages import NotificationRecord
from repro.obs.instruments import InstrumentRegistry

__all__ = ["COUNTERS", "NetworkMetrics"]

#: the network's counters, in report order (registry ``network.<name>``):
#:
#: * ``subscription_messages`` / ``unsubscription_messages`` /
#:   ``publication_messages`` — broker-to-broker message hops;
#: * ``notifications`` — deliveries to local subscribers;
#:   ``expected_notifications`` — what a lossless system would deliver
#:   (the global oracle's matching);
#: * ``suppressed_subscriptions`` — per-link decisions that withheld a
#:   (probably) covered subscription; ``subsumption_checks`` — every
#:   per-link decision; ``rspc_iterations`` — the checker's random guesses;
#: * ``false_positive_notifications`` — deliveries through a merged filter
#:   the subscriber's own subscription does not match;
#:   ``merged_advertisements`` — decisions that advertised a merged box,
#:   ``merge_false_volume`` their over-approximated volume;
#:   ``dead_letter_publications`` — publications routed to a broker where
#:   nothing matched;
#: * ``missed_notifications`` — expected notifications never delivered
#:   (the false decisions).
COUNTERS = (
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
    "missed_notifications",
)

#: counters only the merging strategies move — reported only when they
#: moved, so the reports of covering-policy runs keep their keys
_REDUCTION_COUNTERS = (
    "false_positive_notifications",
    "merged_advertisements",
    "merge_false_volume",
    "dead_letter_publications",
)


#: the keys of every latency summary — an empty sample reports all zeros
#: rather than dropping them, so report consumers never miss a column
_LATENCY_KEYS = (
    "delivery_latency_p50",
    "delivery_latency_p95",
    "delivery_latency_p99",
    "delivery_latency_mean",
    "delivery_latency_max",
)


def _latency_stats(latencies: Sequence[float]) -> Dict[str, float]:
    """Percentile summary of a latency sample (all zeros when empty)."""
    if not len(latencies):
        return dict.fromkeys(_LATENCY_KEYS, 0.0)
    array = np.asarray(latencies, dtype=float)
    p50, p95, p99 = np.percentile(array, (50.0, 95.0, 99.0))
    values = (p50, p95, p99, array.mean(), array.max())
    return {key: round(float(value), 6) for key, value in zip(_LATENCY_KEYS, values)}


class NetworkMetrics:
    """The counters of a :class:`~repro.broker.network.BrokerNetwork`.

    Each name in :data:`COUNTERS` is also a read-only attribute: the
    counter's value since the metrics were built.  ``track_latency``
    (set by the network under a non-default latency model) adds the
    delivery-latency percentiles and the kernel's queue-depth high-water
    mark to every report.
    """

    def __init__(self, track_latency: bool = False):
        self.registry = InstrumentRegistry()
        self.track_latency = track_latency
        self.counters = {
            name: self.registry.counter(f"network.{name}") for name in COUNTERS
        }
        #: virtual-time latency of every delivered notification, in order
        self.latencies = self.registry.histogram("network.delivery_latency")
        #: the kernel's queue-depth high-water mark of every client operation
        self.queue_depths = self.registry.histogram("network.queue_depth_high_water")
        #: the expected notifications that were never delivered
        self.missed: List[NotificationRecord] = []
        #: delivered notifications whose subscription did not actually
        #: match the publication (merged-filter false positives)
        self.false_positives: List[NotificationRecord] = []

    @property
    def delivery_latencies(self) -> List[float]:
        """The delivery-latency sample list, in delivery order."""
        return self.latencies.samples

    def report(self, delta: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
        """The report of a registry diff: one phase's metrics, or totals.

        ``delta`` is ``registry.diff(mark)``; ``None`` reports everything
        since the metrics were built.  Beyond the counters it gives the
        interval's ``delivery_ratio`` and, under latency tracking, its
        latency percentiles and queue-depth high-water mark.
        """
        if delta is None:
            delta = self.registry.diff()
        report = {name: delta[f"network.{name}"] for name in COUNTERS}
        for name in _REDUCTION_COUNTERS:
            if not report[name]:
                del report[name]
        if "merge_false_volume" in report:
            report["merge_false_volume"] = round(report["merge_false_volume"], 6)
        owed = report["expected_notifications"]
        missed = report["missed_notifications"]
        report["delivery_ratio"] = 1.0 if owed == 0 else round((owed - missed) / owed, 6)
        if self.track_latency:
            report.update(_latency_stats(_tail(self.latencies, delta)))
            report["queue_depth_high_water"] = max(
                _tail(self.queue_depths, delta), default=0
            )
        return report

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"NetworkMetrics(notifications={self.notifications}, "
            f"expected={self.expected_notifications}, "
            f"track_latency={self.track_latency})"
        )


def _tail(histogram, delta: Mapping[str, float]) -> List[float]:
    """The samples a registry diff counted for ``histogram``."""
    samples = histogram.samples
    return samples[len(samples) - delta[histogram.key]:]


def _reader(name: str) -> property:
    return property(
        lambda self: self.counters[name].value, doc=f"``network.{name}``."
    )


for _name in COUNTERS:
    setattr(NetworkMetrics, _name, _reader(_name))
del _name
