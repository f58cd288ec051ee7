"""Messages exchanged between brokers.

The simulator is message-driven: every subscription, unsubscription and
publication travels as its own message between neighbouring brokers (one
:class:`PublicationMessage` per publication per hop), and every message
hop is counted by :class:`~repro.broker.metrics.NetworkMetrics`,
which is how the traffic results of the evaluation are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.model.publications import Publication
from repro.model.subscriptions import Subscription

__all__ = [
    "Message",
    "SubscriptionMessage",
    "UnsubscriptionMessage",
    "PublicationMessage",
    "NotificationRecord",
]


@dataclass
class Message:
    """Base class of every inter-broker message.

    Attributes
    ----------
    sender:
        Identifier of the sending broker, or ``None`` when the message
        enters the network from a local client.
    recipient:
        Identifier of the receiving broker.
    hops:
        Number of broker-to-broker hops travelled so far.
    injected_at:
        Virtual time at which the *original* client operation entered the
        network; propagated unchanged across hops so end-to-end delivery
        latency is ``delivered_at - injected_at`` at the delivering broker.
    sent_at:
        Virtual time at which this hop was handed to the simulation kernel.
    delivered_at:
        Virtual time at which the kernel delivered this hop to its
        recipient (``sent_at`` plus the link's sampled latency, pushed
        later if the link's FIFO order demands it).
    trace_id:
        Causal-trace identifier assigned by the observability layer when
        span recording is on (empty otherwise); every hop a client
        operation fans out into inherits it, which is what stitches the
        per-stage spans of :mod:`repro.obs.spans` into one causal chain.
    """

    sender: Optional[str]
    recipient: str
    hops: int = 0
    injected_at: float = 0.0
    sent_at: float = 0.0
    delivered_at: float = 0.0
    trace_id: str = ""


@dataclass
class SubscriptionMessage(Message):
    """A subscription being propagated through the overlay."""

    subscription: Subscription = None  # type: ignore[assignment]
    #: broker where the subscription entered the network
    origin: str = ""


@dataclass
class UnsubscriptionMessage(Message):
    """An unsubscription being propagated through the overlay."""

    subscription_id: str = ""
    origin: str = ""


@dataclass
class PublicationMessage(Message):
    """A publication being routed along the reverse paths."""

    publication: Publication = None  # type: ignore[assignment]
    #: broker where the publication entered the network
    origin: str = ""


class NotificationRecord(NamedTuple):
    """A notification delivered to a local subscriber; ``record[1:]`` is
    its delivery key (subscriber, subscription, publication)."""

    broker: str
    subscriber: str
    subscription_id: str
    publication_id: str
