"""Virtual-time event-driven simulation kernel of the broker overlay.

The seed simulator pumped messages through a synchronous, untimed FIFO
``deque`` — every hop was instantaneous and the network had no notion of
time, so latency and queueing were inexpressible.  This module
replaces that pump with a discrete-event kernel:

* :class:`EventKernel` keeps a priority queue of timestamped message
  deliveries and a virtual clock that jumps from delivery to delivery;
* every broker-to-broker hop is delayed by a pluggable per-link
  :class:`LatencyModel` — :class:`ZeroLatency` (the default, which makes
  the kernel degenerate to the seed's FIFO pump byte-for-byte),
  :class:`FixedLatency` and the seeded :class:`LognormalLatency`;
* deliveries on one directed link never overtake each other (per-link
  FIFO): a sampled latency that would reorder a link is clamped to the
  link's previous delivery time, which models a FIFO channel rather than
  independent datagrams;
* messages are scheduled in runs (:meth:`EventKernel.schedule_many` — a
  handler's whole output, a burst's whole injection) and same-instant
  publication hops are popped in runs (:meth:`EventKernel.drain_grouped`),
  so the per-message cost of the kernel is a heap push and a heap pop;
  both leave exactly the heap sequence of one message at a time.

With the zero model every event is scheduled at time 0.0 and the heap
degenerates to insertion order — exactly the seed pump's global FIFO — so
all pre-kernel metrics and traces are reproduced unchanged.

Latency model specifications are strings so they can travel through
scenario specs, trace headers and the CLI::

    zero                     no latency (default)
    fixed                    1.0 virtual time units per hop
    fixed:0.25               0.25 units per hop
    lognormal                exp(N(0, 0.25)) units per hop, seeded
    lognormal:0.5,1.0        exp(N(0.5, 1.0)) units per hop, seeded
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.broker.messages import Message, PublicationMessage
from repro.obs import probes as obs_probes
from repro.obs.probes import stage
from repro.utils.rng import RandomSource, ensure_rng

__all__ = [
    "LATENCY_MODEL_NAMES",
    "LatencyModel",
    "ZeroLatency",
    "FixedLatency",
    "LognormalLatency",
    "make_latency_model",
    "parse_latency_model",
    "EventKernel",
]

#: latency model family names accepted by :func:`make_latency_model`
LATENCY_MODEL_NAMES = ("zero", "fixed", "lognormal")

#: a directed logical link (sending broker, receiving broker)
Link = Tuple[str, str]


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
class LatencyModel:
    """Per-link hop latency distribution.

    ``spec`` round-trips through :func:`make_latency_model`, which is how
    scenario specs and trace headers record the model.
    """

    #: family name (one of :data:`LATENCY_MODEL_NAMES`)
    name: str = "?"
    #: canonical spec string this model was built from
    spec: str = "?"

    def sample(self, sender: str, recipient: str) -> float:
        """Latency of one hop on the directed link ``sender -> recipient``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}({self.spec!r})"


class ZeroLatency(LatencyModel):
    """Instantaneous hops — the seed simulator's semantics."""

    name = "zero"
    spec = "zero"

    def sample(self, sender: str, recipient: str) -> float:
        return 0.0


class FixedLatency(LatencyModel):
    """Every hop takes the same constant virtual time."""

    name = "fixed"

    def __init__(self, delay: float = 1.0):
        if not math.isfinite(delay) or delay < 0:
            raise ValueError("fixed latency must be finite and non-negative")
        self.delay = float(delay)
        self.spec = f"fixed:{self.delay:g}"

    def sample(self, sender: str, recipient: str) -> float:
        return self.delay


class LognormalLatency(LatencyModel):
    """Heavy-tailed per-hop latency: ``exp(N(mu, sigma))`` virtual units.

    The generator is seeded (by the owning network, from its own derived
    stream), so runs and replays sample identical latency sequences.
    """

    name = "lognormal"

    def __init__(self, mu: float = 0.0, sigma: float = 0.25, rng: RandomSource = None):
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError("lognormal parameters must be finite")
        if sigma < 0:
            raise ValueError("lognormal sigma must be non-negative")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.spec = f"lognormal:{self.mu:g},{self.sigma:g}"
        self._rng = ensure_rng(rng)

    def reseed(self, rng: RandomSource) -> None:
        """Swap the random stream (used when a network adopts the model)."""
        self._rng = ensure_rng(rng)

    def sample(self, sender: str, recipient: str) -> float:
        return float(self._rng.lognormal(self.mu, self.sigma))


def parse_latency_model(spec: str) -> Tuple[str, Tuple[float, ...]]:
    """Parse (and validate) a latency-model spec string.

    Returns ``(family name, parameters)``; raises :class:`ValueError` on
    unknown families or malformed parameters, which is what lets
    :class:`~repro.scenarios.spec.ScenarioSpec` validate the field at
    construction time.
    """
    name, _, raw_params = str(spec).partition(":")
    if name not in LATENCY_MODEL_NAMES:
        raise ValueError(
            f"unknown latency model {name!r}; expected one of "
            f"{LATENCY_MODEL_NAMES}"
        )
    if not raw_params:
        return name, ()
    if name == "zero":
        raise ValueError("the zero latency model takes no parameters")
    try:
        params = tuple(float(part) for part in raw_params.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed latency model spec {spec!r}") from exc
    if not all(math.isfinite(param) for param in params):
        raise ValueError(f"latency model parameters must be finite in {spec!r}")
    limits = {"fixed": 1, "lognormal": 2}
    if len(params) > limits[name]:
        raise ValueError(
            f"latency model {name!r} takes at most {limits[name]} "
            f"parameter(s), got {len(params)} in {spec!r}"
        )
    if name == "fixed" and params and params[0] < 0:
        raise ValueError(f"fixed latency must be non-negative in {spec!r}")
    if name == "lognormal" and len(params) > 1 and params[1] < 0:
        raise ValueError(f"lognormal sigma must be non-negative in {spec!r}")
    return name, params


def make_latency_model(spec: str, rng: RandomSource = None) -> LatencyModel:
    """Instantiate a latency model from its spec string."""
    if isinstance(spec, LatencyModel):
        return spec
    name, params = parse_latency_model(spec)
    if name == "zero":
        return ZeroLatency()
    if name == "fixed":
        return FixedLatency(*params)
    return LognormalLatency(*params, rng=rng)


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
class EventKernel:
    """Priority-queue scheduler over timestamped message deliveries.

    Parameters
    ----------
    latency_model:
        Hop-latency distribution applied to every broker-to-broker link
        (client injections are instantaneous).

    Under an installed :class:`~repro.obs.probes.ObsProbe` the kernel
    times its scheduling work as ``kernel.schedule`` and emits
    ``enqueued`` spans with queue depths.
    """

    def __init__(self, latency_model: Optional[LatencyModel] = None):
        self.latency_model = latency_model or ZeroLatency()
        #: current virtual time (time of the last delivered event)
        self.now = 0.0
        self._heap: List[Tuple[float, int, Message]] = []
        self._sequence = 0
        #: per directed link: virtual time of the latest scheduled delivery
        self._link_clock: Dict[Link, float] = {}
        #: total events scheduled over the kernel's lifetime
        self.scheduled = 0
        #: deepest the pending-event queue ever got (lifetime high-water)
        self.queue_depth_high_water = 0
        #: high-water mark since the last :meth:`reset_phase_high_water`
        #: (the network resets it at every client operation)
        self.phase_queue_depth_high_water = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @stage("kernel.schedule")
    def schedule_many(self, messages: Iterable[Message]) -> None:
        """Enqueue every message, in order, as one scheduling run.

        Local injections (``sender is None``) are delivered at the current
        virtual time; broker-to-broker hops are delayed by the latency
        model, clamped so deliveries on one directed link keep their send
        order (FIFO links).  Leaves the heap (sequence numbers included),
        the link clocks, :attr:`scheduled` and both high-water marks
        exactly as one run per message would, for one ``kernel.schedule``
        stage entry instead of one per message.  ``messages`` is consumed
        lazily, each message taken only when its turn to be pushed has
        come.
        """
        heap = self._heap
        link_clock = self._link_clock
        sample = self.latency_model.sample
        # Never schedule behind the virtual clock: a caller may hand the
        # kernel a hop stamped before the clock last advanced, and a
        # delivery in the past would rewind it.
        now = self.now
        obs = obs_probes.ACTIVE
        sequence = self._sequence
        try:
            for message in messages:
                deliver_at = now if now > message.sent_at else message.sent_at
                sender = message.sender
                if sender is not None:
                    link = (sender, message.recipient)
                    deliver_at += sample(sender, message.recipient)
                    clock = link_clock.get(link, 0.0)
                    if clock > deliver_at:
                        deliver_at = clock
                    link_clock[link] = deliver_at
                message.delivered_at = deliver_at
                heapq.heappush(heap, (deliver_at, sequence, message))
                sequence += 1
                if obs is not None:
                    obs.on_enqueue(message, deliver_at, len(heap))
        finally:
            self.scheduled += sequence - self._sequence
            self._sequence = sequence
            # the queue only grew, so it is now as deep as it got
            depth = len(heap)
            if depth > self.queue_depth_high_water:
                self.queue_depth_high_water = depth
            if depth > self.phase_queue_depth_high_water:
                self.phase_queue_depth_high_water = depth

    def reset_phase_high_water(self) -> None:
        """Start a fresh queue-depth high-water interval."""
        self.phase_queue_depth_high_water = len(self._heap)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def drain_grouped(
        self,
    ) -> Iterator[Union[Message, List[PublicationMessage]]]:
        """Deliver queued messages in timestamp order until quiescence.

        The caller processes each yielded message and schedules whatever
        it triggers before the next one is popped — the standard
        discrete-event loop — except that plain publication hops pop as
        runs: every plain publication hop is yielded inside a list.  Under
        the zero latency model the list is the maximal run of consecutive
        plain publication hops with one delivery time, in pop (sequence)
        order, so the consumer can process the whole delivery generation
        batched per receiving broker.  The run is exactly the prefix a
        one-message-at-a-time drain would have yielded — everything a run
        member schedules carries a later sequence number at the same or a
        later time, so nothing can interleave into the run — which makes the identity obligation the *consumer's*: it
        must keep per-recipient processing order and reschedule the run's
        outgoing messages in original run order (see
        :meth:`~repro.broker.network.BrokerNetwork._drain`).  Timed models
        (whose queue-depth gauges reflect exact pop timing) get runs of
        one; every other message is yielded bare.
        """
        heap = self._heap
        group_enabled = self.latency_model.name == "zero"
        while heap:
            deliver_at, _, message = heapq.heappop(heap)
            self.now = deliver_at
            if type(message) is not PublicationMessage:
                yield message
                continue
            run = [message]
            while (
                group_enabled
                and heap
                and heap[0][0] == deliver_at
                and type(heap[0][2]) is PublicationMessage
            ):
                run.append(heapq.heappop(heap)[2])
            yield run

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"EventKernel(model={self.latency_model.spec!r}, now={self.now:g}, "
            f"pending={len(self._heap)})"
        )
