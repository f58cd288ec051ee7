"""Hop-level causal tracing.

Every client operation that enters the broker network opens a *trace*;
each lifecycle stage the operation (and the messages it fans out into)
passes through emits a :class:`Span` stamped with the simulation
kernel's virtual clock:

``injected``
    the client operation entered the network (the root of the trace);
``enqueued``
    a message hop was handed to the event kernel;
``link-transit``
    a broker-to-broker hop travelled a link (``t0 = sent_at``,
    ``t1 = delivered_at``);
``dedup``
    the receiving broker consulted its duplicate-suppression window
    (status ``fresh`` or ``duplicate`` — the stage where a looping
    publication's causal chain legitimately terminates);
``route-lookup``
    the routing-table lookup answering "who matches";
``match``
    the per-broker forwarding/delivery decision derived from that
    lookup (how many local matches, which neighbour targets);
``decision``
    a per-link reduction decision for a subscription (forwarded,
    suppressed or merged);
``deliver``
    one notification handed to a local subscriber (the leaf that makes
    a publication trace *complete*).

Spans are plain data: they serialize to JSONL (:func:`write_spans` /
:func:`read_spans`) for the ``repro-scenarios run --obs-spans`` export
and the ``repro-obs report`` renderer.  The recorder also keeps a
per-link queue-depth timeline sampled at every enqueue/delivery, which
is what the report's queue tables are built from.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "SPANS_KIND",
    "SPANS_VERSION",
    "Span",
    "SpanRecorder",
    "read_spans",
    "write_spans",
]

SPANS_KIND = "repro.obs.spans"
SPANS_VERSION = 1

#: trace-id prefix per message kind — ids are deterministic per run
_TRACE_PREFIX = {"publication": "P", "subscription": "S", "unsubscription": "U"}


@dataclass
class Span:
    """One lifecycle stage of one traced operation.

    ``t0``/``t1`` are virtual timestamps from the event kernel; point
    events have ``t0 == t1``.  ``detail`` carries stage-specific payload
    (publication id, subscriber, match counts…).
    """

    trace_id: str
    seq: int
    kind: str
    stage: str
    t0: float
    t1: float
    broker: Optional[str] = None
    link: Optional[str] = None
    status: str = "ok"
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Virtual time spent in the stage."""
        return self.t1 - self.t0

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dictionary (JSON-safe)."""
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "seq": self.seq,
            "kind": self.kind,
            "stage": self.stage,
            "t0": self.t0,
            "t1": self.t1,
            "status": self.status,
        }
        if self.broker is not None:
            payload["broker"] = self.broker
        if self.link is not None:
            payload["link"] = self.link
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        """Deserialize a span produced by :meth:`to_dict`."""
        return cls(
            trace_id=payload["trace_id"],
            seq=payload["seq"],
            kind=payload["kind"],
            stage=payload["stage"],
            t0=payload["t0"],
            t1=payload["t1"],
            broker=payload.get("broker"),
            link=payload.get("link"),
            status=payload.get("status", "ok"),
            detail=payload.get("detail", {}),
        )


class SpanRecorder:
    """Accumulates spans and per-link queue-depth samples for one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(virtual time, link, outstanding hops on the link)`` samples
        self.queue_samples: List[Tuple[float, str, int]] = []
        self._seq = 0
        self._trace_counts: Dict[str, int] = {}
        self._link_depth: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def new_trace(self, kind: str) -> str:
        """Open a trace for one client operation; returns its id.

        Ids are deterministic (a per-kind counter), so two runs of the
        same compiled scenario produce identical span files.
        """
        prefix = _TRACE_PREFIX.get(kind, "T")
        number = self._trace_counts.get(kind, 0) + 1
        self._trace_counts[kind] = number
        return f"{prefix}{number:06d}"

    def record(
        self,
        trace_id: str,
        kind: str,
        stage: str,
        t0: float,
        t1: Optional[float] = None,
        broker: Optional[str] = None,
        link: Optional[str] = None,
        status: str = "ok",
        **detail: Any,
    ) -> Span:
        """Append one span (point event when ``t1`` is omitted)."""
        self._seq += 1
        span = Span(
            trace_id=trace_id,
            seq=self._seq,
            kind=kind,
            stage=stage,
            t0=t0,
            t1=t0 if t1 is None else t1,
            broker=broker,
            link=link,
            status=status,
            detail=detail,
        )
        self.spans.append(span)
        return span

    def link_enqueued(self, now: float, link: str) -> None:
        """Sample the link's queue depth after a hop was enqueued."""
        depth = self._link_depth.get(link, 0) + 1
        self._link_depth[link] = depth
        self.queue_samples.append((now, link, depth))

    def link_delivered(self, now: float, link: str) -> None:
        """Sample the link's queue depth after a hop was delivered."""
        depth = max(0, self._link_depth.get(link, 0) - 1)
        self._link_depth[link] = depth
        self.queue_samples.append((now, link, depth))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id, each group in emission order."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SpanRecorder(spans={len(self.spans)}, "
            f"traces={sum(self._trace_counts.values())})"
        )


# ----------------------------------------------------------------------
# JSONL export / import
# ----------------------------------------------------------------------
def write_spans(
    path: Union[str, os.PathLike], recorder: SpanRecorder
) -> int:
    """Write a recorder's spans (and queue samples) as JSONL.

    Returns the number of spans written.  The file is one header line,
    one line per span, then one line per queue-depth sample.
    """
    directory = os.path.dirname(os.fspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "kind": SPANS_KIND,
            "version": SPANS_VERSION,
            "span_count": len(recorder.spans),
            "queue_sample_count": len(recorder.queue_samples),
        }
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for span in recorder.spans:
            payload = span.to_dict()
            payload["type"] = "span"
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
        for now, link, depth in recorder.queue_samples:
            handle.write(
                json.dumps(
                    {"type": "queue", "t": now, "link": link, "depth": depth},
                    sort_keys=True,
                )
                + "\n"
            )
    return len(recorder.spans)


def read_spans(path: Union[str, os.PathLike]) -> SpanRecorder:
    """Load a span file written by :func:`write_spans`."""
    recorder = SpanRecorder()
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in (raw.strip() for raw in handle) if line]
    if not lines:
        raise ValueError(f"span file {os.fspath(path)!r} is empty")
    header = json.loads(lines[0])
    if header.get("kind") != SPANS_KIND:
        raise ValueError(
            f"not a span file (kind={header.get('kind')!r})"
        )
    if header.get("version") != SPANS_VERSION:
        raise ValueError(
            f"unsupported span file version {header.get('version')!r}"
        )
    for line in lines[1:]:
        payload = json.loads(line)
        if payload.get("type") == "queue":
            recorder.queue_samples.append(
                (payload["t"], payload["link"], payload["depth"])
            )
            continue
        span = Span.from_dict(payload)
        recorder.spans.append(span)
        recorder._seq = max(recorder._seq, span.seq)
        prefix_count = recorder._trace_counts
        prefix_count[span.kind] = prefix_count.get(span.kind, 0)
    declared = header.get("span_count")
    if declared is not None and declared != len(recorder.spans):
        raise ValueError(
            f"span file declares {declared} spans but contains "
            f"{len(recorder.spans)}"
        )
    return recorder
