"""The instrument registry: named counters, gauges and histograms.

One :class:`InstrumentRegistry` is the single place every metric of a
running system can be discovered, snapshotted and diffed from.  Three
instrument kinds cover the system's needs:

:class:`Counter`
    A monotonically *written* numeric cell (``inc``); brokers count
    message hops, suppressions and subsumption checks with these.  The
    value is a plain attribute, so a hot path holding the counter adds
    to ``counter.value`` directly.
:class:`Gauge`
    A point-in-time level (``set``): kernel queue
    depths, arena sizes.
:class:`Histogram`
    A sample list (``observe``) with percentile summaries — used for
    virtual-time delivery latencies and per-stage span durations.

Instruments are keyed by ``(name, labels)`` where labels are free-form
``key=value`` pairs (per-broker, per-link, per-strategy, per-stage…), so
``registry.counter("hops", link="B1->B2")`` and the same name with
another link are distinct series.

:meth:`InstrumentRegistry.snapshot` returns a plain ``{key: value}``
dictionary (a mark), and :meth:`InstrumentRegistry.diff` subtracts a
mark counter-wise — gauges report their current level, histograms their
sample-count delta.  Every phase delta and every total of a scenario
report is one such diff, turned into report keys by its backend
(:meth:`~repro.broker.metrics.NetworkMetrics.report`,
:meth:`~repro.matching.engine.EngineCounters.report`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InstrumentRegistry",
    "render_key",
]

#: canonical label form: sorted ``(key, value)`` pairs
Labels = Tuple[Tuple[str, str], ...]


def _labels_of(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_key(name: str, labels: Labels = ()) -> str:
    """The flat string key of an instrument: ``name{k=v,k2=v2}``."""
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A numeric cell that call sites add to."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (counters grow; negative amounts are a bug)."""
        self.value += amount

    @property
    def key(self) -> str:
        """Flat string key (``name{labels}``)."""
        return render_key(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Counter({self.key!r}, value={self.value!r})"


class Gauge:
    """A point-in-time level."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        """Overwrite the level."""
        self.value = value

    @property
    def key(self) -> str:
        """Flat string key (``name{labels}``)."""
        return render_key(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Gauge({self.key!r}, value={self.value!r})"


class Histogram:
    """An observation list with percentile summaries.

    Samples are kept in observation order (a plain list), so the
    samples a :meth:`InstrumentRegistry.diff` counted are the list's
    tail of that length.
    """

    __slots__ = ("name", "labels", "samples")
    kind = "histogram"

    def __init__(self, name: str, labels: Labels = ()):
        self.name = name
        self.labels = labels
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return len(self.samples)

    @property
    def key(self) -> str:
        """Flat string key (``name{labels}``)."""
        return render_key(self.name, self.labels)

    def percentiles(
        self, quantiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, float]:
        """``{"p50": …}`` percentile summary (all zeros when empty)."""
        if not self.samples:
            return {f"p{q:g}": 0.0 for q in quantiles}
        ordered = sorted(self.samples)
        last = len(ordered) - 1
        out: Dict[str, float] = {}
        for q in quantiles:
            # Nearest-rank on the sorted samples: cheap, dependency-free
            # and stable for the small-to-medium sample counts spans
            # produce.
            rank = min(last, max(0, round(q / 100.0 * last)))
            out[f"p{q:g}"] = float(ordered[int(rank)])
        return out

    def summary(self) -> Dict[str, float]:
        """Count, mean, max and the standard percentiles."""
        stats = {"count": float(len(self.samples))}
        if self.samples:
            stats["mean"] = sum(self.samples) / len(self.samples)
            stats["max"] = max(self.samples)
        else:
            stats["mean"] = 0.0
            stats["max"] = 0.0
        stats.update(self.percentiles())
        return stats

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Histogram({self.key!r}, count={self.count})"


class InstrumentRegistry:
    """Get-or-create registry of every instrument in a running system."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], Any] = {}

    # ------------------------------------------------------------------
    # Creation / lookup
    # ------------------------------------------------------------------
    def _get_or_create(self, factory, name: str, labels: Mapping[str, Any]):
        key = (name, _labels_of(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"instrument {render_key(*key)!r} already registered as "
                f"{instrument.kind}, not {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(Histogram, name, labels)

    # ------------------------------------------------------------------
    # Snapshot / diff
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``{key: value}`` view of every instrument.

        Counters and gauges contribute their value; histograms their
        sample count (the percentile view lives in :meth:`tables`).
        """
        out: Dict[str, float] = {}
        for instrument in self._instruments.values():
            if instrument.kind == "histogram":
                out[instrument.key] = instrument.count
            else:
                out[instrument.key] = instrument.value
        return out

    def diff(
        self, earlier: Optional[Mapping[str, float]] = None
    ) -> Dict[str, float]:
        """Deltas since an earlier :meth:`snapshot`.

        Counter and histogram-count keys are subtracted; gauge keys
        report their *current* level (levels are not interval
        quantities).  Instruments created after ``earlier`` was taken
        diff against zero.
        """
        earlier = earlier or {}
        out: Dict[str, float] = {}
        for instrument in self._instruments.values():
            key = instrument.key
            if instrument.kind == "gauge":
                out[key] = instrument.value
            elif instrument.kind == "histogram":
                out[key] = instrument.count - earlier.get(key, 0)
            else:
                out[key] = instrument.value - earlier.get(key, 0)
        return out

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"InstrumentRegistry({len(self._instruments)} instruments)"
