"""Distributed publish/subscribe broker overlay.

The simulator reproduces the distributed setting of Sections 2 and 5: a
network of brokers connected by logical links, subscription propagation by
flooding with reverse-path forwarding, and covering-based suppression of
redundant subscriptions.  The reduction strategy is pluggable (``none``,
``pairwise``, ``group``, ``merging``, ``hybrid`` — see
:mod:`repro.core.policies`) so the traffic impact of the paper's
probabilistic group subsumption can be measured against the classical
baselines *and* against the related work's merging approach (smaller
routing state bought with false-positive deliveries), and the delivery
loss caused by erroneous coverage decisions can be quantified
(Proposition 5 / Eq. 2).
"""

from repro.broker.broker import Broker
from repro.broker.chain import ChainModel, simulate_chain_delivery
from repro.broker.messages import (
    Message,
    NotificationRecord,
    PublicationMessage,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from repro.broker.metrics import NetworkMetrics
from repro.broker.network import BrokerNetwork
from repro.broker.sim import (
    LATENCY_MODEL_NAMES,
    EventKernel,
    FixedLatency,
    LatencyModel,
    LognormalLatency,
    ZeroLatency,
    make_latency_model,
    parse_latency_model,
)
from repro.broker.topologies import (
    grid_topology,
    line_topology,
    random_tree_topology,
    star_topology,
)
from repro.core.store import CoveringPolicyName as CoveringPolicy

__all__ = [
    "Broker",
    "BrokerNetwork",
    "ChainModel",
    "CoveringPolicy",
    "EventKernel",
    "FixedLatency",
    "LATENCY_MODEL_NAMES",
    "LatencyModel",
    "LognormalLatency",
    "Message",
    "NetworkMetrics",
    "NotificationRecord",
    "PublicationMessage",
    "SubscriptionMessage",
    "UnsubscriptionMessage",
    "ZeroLatency",
    "grid_topology",
    "line_topology",
    "random_tree_topology",
    "simulate_chain_delivery",
    "star_topology",
    "make_latency_model",
    "parse_latency_model",
]
