"""Zero-overhead observability probes.

The module-level :data:`ACTIVE` slot holds the currently installed
:class:`ObsProbe`, or ``None`` — the default — when observability is
off.  There is no other probe source: every instrumented layer reads
:data:`ACTIVE` when it runs and guards each hook with a single
``is None`` test, so a probe observes whatever runs while it is
installed, and the disabled system runs the exact pre-instrumentation
code path: all metrics and trace hashes stay byte-identical to a system
without this package.  Stages are timed through :class:`stage` only.

A probe aggregates three things:

* an :class:`~repro.obs.instruments.InstrumentRegistry` — the single
  registry every instrumented component reports into;
* an optional :class:`~repro.obs.spans.SpanRecorder` — hop-level causal
  spans (omit it to profile without paying span-object churn);
* wall-clock *stage timers* with self-time attribution: nested stages
  subtract their children, so ``stage_totals`` sums to (almost exactly)
  the instrumented wall time and a ranked per-stage cost table falls
  out of any run — the input of ``bench/``'s per-layer rows.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs.instruments import InstrumentRegistry
from repro.obs.spans import SpanRecorder

__all__ = [
    "ACTIVE",
    "ObsProbe",
    "active",
    "disable",
    "enabled",
    "install",
    "is_enabled",
    "stage",
]

#: message class name -> trace kind (kept here so the probe layer never
#: imports the broker package, which itself imports ``repro.obs``)
_MESSAGE_KINDS = {
    "SubscriptionMessage": "subscription",
    "UnsubscriptionMessage": "unsubscription",
    "PublicationMessage": "publication",
}


class ObsProbe:
    """One observability session: registry + spans + stage timers."""

    def __init__(
        self,
        registry: Optional[InstrumentRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        self.registry = registry if registry is not None else InstrumentRegistry()
        self.spans = spans
        #: wall-clock self-time per stage name, seconds
        self.stage_self: Dict[str, float] = {}
        #: number of times each stage ran
        self.stage_calls: Dict[str, int] = {}
        self._stack: List[List] = []

    # ------------------------------------------------------------------
    # Wall-clock stage timing (self-time attribution)
    # ------------------------------------------------------------------
    def stage_push(self, name: str) -> None:
        """Enter a stage (nesting allowed; children are subtracted)."""
        self._stack.append([name, perf_counter(), 0.0])

    def stage_pop(self) -> None:
        """Leave the innermost stage, accumulating its self-time."""
        name, started, child_time = self._stack.pop()
        duration = perf_counter() - started
        self.stage_self[name] = (
            self.stage_self.get(name, 0.0) + duration - child_time
        )
        self.stage_calls[name] = self.stage_calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def stage_totals(self) -> List[Tuple[str, float, int]]:
        """``(stage, self-time seconds, calls)`` ranked by cost."""
        rows = [
            (name, self.stage_self[name], self.stage_calls.get(name, 0))
            for name in self.stage_self
        ]
        rows.sort(key=lambda row: row[1], reverse=True)
        return rows

    def flush_stages_to_registry(self) -> None:
        """Mirror the stage timers into the instrument registry.

        Self-times land in ``obs.stage_seconds{stage=…}`` counters and
        call counts in ``obs.stage_calls{stage=…}``, so one registry
        snapshot carries the profiling data too.
        """
        for name, seconds in self.stage_self.items():
            self.registry.counter("obs.stage_seconds", stage=name).value = seconds
            self.registry.counter(
                "obs.stage_calls", stage=name
            ).value = self.stage_calls.get(name, 0)

    # ------------------------------------------------------------------
    # Span hooks (no-ops unless a recorder is attached)
    # ------------------------------------------------------------------
    def message_kind(self, message) -> str:
        """Trace kind of a broker message (by class name, import-free)."""
        return _MESSAGE_KINDS.get(type(message).__name__, "message")

    def on_inject(self, message, now: float) -> None:
        """A client operation entered the network: open its trace."""
        spans = self.spans
        if spans is None:
            return
        kind = self.message_kind(message)
        message.trace_id = spans.new_trace(kind)
        detail = {}
        ref = getattr(message, "publication", None)
        if ref is not None:
            detail["publication_id"] = ref.id
        sub = getattr(message, "subscription", None)
        if sub is not None:
            detail["subscription_id"] = sub.id
        sid = getattr(message, "subscription_id", None)
        if sid:
            detail["subscription_id"] = sid
        spans.record(
            message.trace_id,
            kind,
            "injected",
            now,
            broker=message.recipient,
            **detail,
        )

    def on_enqueue(self, message, deliver_at: float, queue_depth: int) -> None:
        """The kernel scheduled a hop for delivery."""
        spans = self.spans
        if spans is None or not message.trace_id:
            return
        link = None
        if message.sender is not None:
            link = f"{message.sender}->{message.recipient}"
            spans.link_enqueued(message.sent_at, link)
        spans.record(
            message.trace_id,
            self.message_kind(message),
            "enqueued",
            message.sent_at,
            deliver_at,
            link=link,
            queue_depth=queue_depth,
        )

    def on_hop_delivered(self, message) -> None:
        """A broker-to-broker hop arrived: record its link transit."""
        spans = self.spans
        if spans is None or message.sender is None or not message.trace_id:
            return
        link = f"{message.sender}->{message.recipient}"
        spans.link_delivered(message.delivered_at, link)
        spans.record(
            message.trace_id,
            self.message_kind(message),
            "link-transit",
            message.sent_at,
            message.delivered_at,
            broker=message.recipient,
            link=link,
            hops=message.hops,
        )


#: the installed probe (``None`` = observability disabled, the default)
ACTIVE: Optional[ObsProbe] = None


class stage:
    """Time a block (``with stage(name):``) or every call of a function
    (``@stage(name)``) as ``name`` on the probe installed at entry.

    The stage is popped however the code exits, so a raising body is
    still counted and leaves no stage open.  With no probe installed
    the code runs as it would without the helper.
    """

    __slots__ = ("name", "_probe")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self) -> None:
        probe = self._probe = ACTIVE
        if probe is not None:
            probe.stage_push(self.name)

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._probe is not None:
            self._probe.stage_pop()

    def __call__(self, function):
        name = self.name

        @functools.wraps(function)
        def staged(*args, **kwargs):
            probe = ACTIVE
            if probe is None:
                return function(*args, **kwargs)
            probe.stage_push(name)
            try:
                return function(*args, **kwargs)
            finally:
                probe.stage_pop()

        return staged


def install(probe: Optional[ObsProbe] = None) -> ObsProbe:
    """Install (and return) the active probe; creates one when omitted."""
    global ACTIVE
    if probe is None:
        probe = ObsProbe()
    ACTIVE = probe
    return probe


def disable() -> None:
    """Remove the active probe (observability off again)."""
    global ACTIVE
    ACTIVE = None


def active() -> Optional[ObsProbe]:
    """The installed probe, or ``None`` when observability is off."""
    return ACTIVE


def is_enabled() -> bool:
    """Whether a probe is currently installed."""
    return ACTIVE is not None


@contextmanager
def enabled(probe: Optional[ObsProbe] = None):
    """Context manager installing ``probe`` for the duration of a block.

    Restores whatever was active before, so nested sessions compose.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = probe if probe is not None else ObsProbe()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
