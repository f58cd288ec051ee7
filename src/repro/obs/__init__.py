"""Observability subsystem: instruments, causal spans and probes.

``repro.obs`` is the cross-cutting instrumentation layer of the broker
network and the matching engine:

* :mod:`repro.obs.instruments` — a registry of named counters, gauges
  and virtual-time histograms with label support, the single place every
  metric in the system can be discovered and snapshotted from;
* :mod:`repro.obs.spans` — hop-level causal tracing: every publication /
  subscription carries a trace id and emits a span per lifecycle stage
  (injected → enqueued → link-transit → dedup → route-lookup → match →
  deliver), timestamped with the kernel's virtual clock;
* :mod:`repro.obs.probes` — the zero-overhead gate: the one installed
  probe every layer reads when it runs, and the ``stage`` helper that
  times every stage, so with observability disabled (the default) every
  component behaves — metric- and trace-hash byte-identically — exactly
  as it did before the subsystem existed;
* :mod:`repro.obs.report` — per-broker / per-link / per-stage tables
  over exported span files (the ``repro-obs report`` CLI).

The functional path never depends on this package being active: probes
observe, they do not decide.
"""

from repro.obs.instruments import (
    Counter,
    Gauge,
    Histogram,
    InstrumentRegistry,
)
from repro.obs.probes import ObsProbe, disable, enabled
from repro.obs.spans import Span, SpanRecorder, read_spans, write_spans

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "InstrumentRegistry",
    "ObsProbe",
    "Span",
    "SpanRecorder",
    "disable",
    "enabled",
    "read_spans",
    "write_spans",
]
