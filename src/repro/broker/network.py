"""The broker overlay network simulator.

:class:`BrokerNetwork` owns a set of :class:`~repro.broker.broker.Broker`
instances connected by logical links, routes messages between them through
a virtual-time event-driven kernel (:mod:`repro.broker.sim`), and
accumulates the traffic/delivery/latency metrics used by the distributed
experiments.

Every client operation injects one message and runs the kernel to
quiescence, so the external API stays synchronous while the internal
message schedule is fully timed: per-link latencies and FIFO link
ordering both happen inside the drain.  Every publication travels one
:class:`~repro.broker.messages.PublicationMessage` per hop.  With the
default ``zero`` latency model the kernel degenerates to the seed's
synchronous FIFO pump, byte for byte.

The simulator additionally keeps a *global oracle* of every subscription in
the system: after each publication it knows exactly which subscribers a
lossless system would have notified, so the notifications lost to erroneous
probabilistic coverage decisions (the concern analysed in Section 5) are
measured directly.  The oracle is keyed by subscription identifier and
matches through a :class:`~repro.core.arena.Matcher`, so unsubscribe
storms cost O(1) bookkeeping per cancellation instead of an O(n) list
rebuild.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.broker.broker import Broker
from repro.broker.messages import (
    Message,
    NotificationRecord,
    PublicationMessage,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from repro.broker.metrics import NetworkMetrics
from repro.broker.sim import EventKernel, LatencyModel, LognormalLatency, make_latency_model
from repro.core.arena import Matcher
from repro.core.policies import DEFAULT_MERGE_BUDGET, policy_value, resolve_policy
from repro.core.store import CoveringPolicyName
from repro.core.subsumption import SubsumptionChecker
from repro.matching.matcher import check_backend_label
from repro.model.publications import Publication
from repro.model.subscriptions import Subscription
from repro.obs import probes as obs_probes
from repro.obs.probes import stage
from repro.utils.rng import RandomSource, ensure_rng, spawn_rngs

__all__ = ["BrokerNetwork"]


class BrokerNetwork:
    """A simulated overlay of content-based publish/subscribe brokers.

    Parameters
    ----------
    edges:
        Logical links as ``(broker_a, broker_b)`` pairs; brokers are created
        on first mention.
    policy:
        Reduction strategy applied by every broker (a name from
        :data:`~repro.core.policies.STRATEGY_NAMES`).
    merge_budget:
        False-volume budget of the merging strategies (ignored by the
        covering-only ones).
    delta:
        Error bound of the probabilistic checker (``group`` policy).
    max_iterations:
        RSPC guess cap per covering decision.
    rng:
        Seed or generator controlling every broker's random stream (and the
        latency model's, when it is stochastic).
    matcher_backend:
        A matcher-backend label (one of
        :data:`~repro.matching.matcher.BACKEND_NAMES`).  It is validated
        and selects nothing (every routing table and the oracle run the
        one matcher); it is kept only because the benchmark harness and
        recorded traces still pass it, and goes with ROADMAP item 4,
        Half B.
    latency_model:
        Per-link hop latency model spec (see
        :func:`~repro.broker.sim.make_latency_model`): ``"zero"`` (the
        default, seed-identical semantics), ``"fixed[:delay]"`` or
        ``"lognormal[:mu,sigma]"``.  With a non-default model the metrics
        additionally track per-notification delivery latency and kernel
        queue depth.
    dedup_window:
        Per-broker bound on the publication-id dedup memory.

    The network, its kernel and its brokers are observed by whatever
    :class:`~repro.obs.probes.ObsProbe` is installed while they run
    (stage timers, causal spans); with none installed they run the exact
    pre-observability code path.

    The network runs in one process; only the engine backend's decision
    pool shards (:mod:`repro.shard`).
    """

    def __init__(
        self,
        edges: Iterable[Tuple[str, str]],
        policy: CoveringPolicyName = CoveringPolicyName.GROUP,
        delta: float = 1e-6,
        max_iterations: int = 1_000,
        rng: RandomSource = None,
        matcher_backend: str = "linear",
        latency_model: str = "zero",
        dedup_window: int = 4096,
        merge_budget: float = DEFAULT_MERGE_BUDGET,
    ):
        self.policy = resolve_policy(policy)
        self.merge_budget = merge_budget
        self.delta = delta
        self.max_iterations = max_iterations
        check_backend_label(matcher_backend)
        self.dedup_window = dedup_window
        self._rng = ensure_rng(rng)
        if isinstance(latency_model, LatencyModel):
            # A caller-supplied model instance is adopted as-is: reseeding
            # it here would silently splice this network's stream into any
            # other network sharing the object.
            model = latency_model
        else:
            model = make_latency_model(latency_model)
            if isinstance(model, LognormalLatency):
                model.reseed(spawn_rngs(self._rng, 1)[0])
        self.latency_model: LatencyModel = model
        self.kernel = EventKernel(model)
        self.brokers: Dict[str, Broker] = {}
        self.metrics = NetworkMetrics(track_latency=model.name != "zero")
        #: client identifier -> broker identifier
        self.clients: Dict[str, str] = {}
        #: global oracle: subscription id -> (subscription, client, broker)
        self._all_subscriptions: Dict[str, Tuple[Subscription, str, str]] = {}
        #: matcher answering the oracle's "who should be notified"
        self._oracle = Matcher()

        for left, right in edges:
            self.add_link(left, right)
        if not self.brokers:
            raise ValueError("a broker network needs at least one link or broker")

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def _new_broker(self, broker_id: str) -> Broker:
        checker = SubsumptionChecker(
            delta=self.delta,
            max_iterations=self.max_iterations,
            rng=spawn_rngs(self._rng, 1)[0],
        )
        broker = Broker(
            broker_id,
            policy=self.policy,
            checker=checker,
            dedup_window=self.dedup_window,
            record_latencies=self.metrics.track_latency,
            merge_budget=self.merge_budget,
        )
        self.brokers[broker_id] = broker
        return broker

    def add_broker(self, broker_id: str) -> Broker:
        """Create (or fetch) a broker."""
        broker = self.brokers.get(broker_id)
        if broker is None:
            broker = self._new_broker(broker_id)
        return broker

    def add_link(self, left: str, right: str) -> None:
        """Create a bidirectional logical link between two brokers."""
        if left == right:
            raise ValueError("self links are not allowed")
        broker_left = self.add_broker(left)
        broker_right = self.add_broker(right)
        broker_left.connect(right)
        broker_right.connect(left)

    def attach_client(self, client_id: str, broker_id: str) -> None:
        """Attach a subscriber/publisher client to a broker."""
        broker = self.add_broker(broker_id)
        broker.attach_subscriber(client_id)
        self.clients[client_id] = broker_id

    @property
    def broker_ids(self) -> List[str]:
        """Identifiers of every broker in the overlay."""
        return list(self.brokers.keys())

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def subscribe(
        self, client_id: str, subscription: Subscription
    ) -> None:
        """Issue a subscription on behalf of an attached client.

        Raises :class:`ValueError`, before any state changes, when the
        identifier is live under another client or another box: brokers
        would keep the first, unseen by the oracle's loss count.
        Re-issuing a live subscription unchanged is a no-op for the oracle.
        """
        broker_id = self._broker_of(client_id)
        if subscription.subscriber is None:
            subscription = subscription.replace(subscriber=client_id)
        live = self._all_subscriptions.get(subscription.id)
        if live is not None:
            registered, registered_client, _ = live
            if (
                registered_client != client_id
                or registered.schema != subscription.schema
                or not registered.same_box(subscription)
            ):
                raise ValueError(
                    f"subscription {subscription.id!r} is already registered"
                )
        else:
            # the oracle rejects a foreign schema before anything is recorded
            self._oracle.add(subscription)
            self._all_subscriptions[subscription.id] = (
                subscription, client_id, broker_id
            )
        message = SubscriptionMessage(
            sender=None,
            recipient=broker_id,
            subscription=subscription,
            origin=broker_id,
        )
        self._run((message,))

    def unsubscribe(self, client_id: str, subscription_id: str) -> None:
        """Cancel a previously issued subscription."""
        broker_id = self._broker_of(client_id)
        if self._all_subscriptions.pop(subscription_id, None) is not None:
            self._oracle.remove(subscription_id)
        message = UnsubscriptionMessage(
            sender=None,
            recipient=broker_id,
            subscription_id=subscription_id,
            origin=broker_id,
        )
        self._run((message,))

    def publish(self, client_id: str, publication: Publication) -> List[NotificationRecord]:
        """Publish on behalf of an attached client: a burst of one.

        Returns the notifications delivered for this publication (the
        network-wide metrics are updated as a side effect).
        """
        return self.publish_many(((client_id, publication),))

    def publish_many(
        self, operations: Sequence[Tuple[str, Publication]]
    ) -> List[NotificationRecord]:
        """Publish a burst of ``(client, publication)`` operations at once.

        The one publication entry point: the delivery oracle answers the
        whole burst through one ``match_batch`` call, the burst is
        injected at a single virtual instant and drained in chunks of at
        most ``dedup_window`` publications, and the grouped drain hands
        same-instant same-broker publications to the broker handler
        together.  The chunking matters on cyclic topologies: the
        dedup memory is what stops a broker re-processing a publication
        arriving over a second path, and bounding the in-flight set per
        drain below the window guarantees no id is evicted while its
        duplicates are still travelling.  Delivery, loss and traffic
        accounting are identical to publishing one operation per call —
        but note the *injection timing* differs under non-zero latency
        models (every operation enters at the same virtual time), so
        timed runs should publish one at a time.
        """
        if not operations:
            # Cheap no-op: no oracle call, no kernel events, no delivery
            # collection pass over every broker.
            return []
        messages = []
        for client_id, publication in operations:
            broker_id = self._broker_of(client_id)
            messages.append(
                PublicationMessage(
                    sender=None,
                    recipient=broker_id,
                    publication=publication,
                    origin=broker_id,
                )
            )
        expected = self._expected_notifications(
            [message.publication for message in messages]
        )
        self.metrics.counters["expected_notifications"].value += len(expected)

        delivered_before = {
            broker.id: len(broker.delivered) for broker in self.brokers.values()
        }
        for start in range(0, len(messages), self.dedup_window):
            self._run(messages[start : start + self.dedup_window])
        return self._collect_deliveries(expected, delivered_before)

    @stage("network.collect")
    def _collect_deliveries(
        self,
        expected: List[NotificationRecord],
        delivered_before: Dict[str, int],
    ) -> List[NotificationRecord]:
        metrics = self.metrics
        counters = metrics.counters
        delivered: List[NotificationRecord] = []
        for broker in self.brokers.values():
            start = delivered_before[broker.id]
            delivered.extend(broker.delivered[start:])
            if metrics.track_latency:
                metrics.delivery_latencies.extend(broker.delivered_latencies[start:])
        counters["notifications"].value += len(delivered)

        delivered_keys = {
            (record.subscriber, record.subscription_id, record.publication_id)
            for record in delivered
        }
        expected_keys = {
            (record.subscriber, record.subscription_id, record.publication_id)
            for record in expected
        }
        missed = [
            record
            for record in expected
            if (record.subscriber, record.subscription_id, record.publication_id)
            not in delivered_keys
        ]
        metrics.missed.extend(missed)
        counters["missed_notifications"].value += len(missed)
        for record in delivered:
            key = (record.subscriber, record.subscription_id, record.publication_id)
            if key not in expected_keys:
                # Delivered although no subscription asked for it: a
                # merged-filter false positive (impossible under the
                # covering strategies).
                metrics.false_positives.append(record)
                counters["false_positive_notifications"].value += 1
        return delivered

    def _broker_of(self, client_id: str) -> str:
        broker_id = self.clients.get(client_id)
        if broker_id is None:
            raise KeyError(f"client {client_id!r} is not attached to any broker")
        return broker_id

    @stage("network.oracle")
    def _expected_notifications(
        self, publications: Sequence[Publication]
    ) -> List[NotificationRecord]:
        """What a lossless system would deliver: one oracle ``match_batch``."""
        expected: List[NotificationRecord] = []
        for publication, (matched, _tests) in zip(
            publications, self._oracle.match_batch(publications)
        ):
            for subscription in matched:
                _, client_id, broker_id = self._all_subscriptions[subscription.id]
                expected.append(
                    NotificationRecord(
                        broker=broker_id,
                        subscriber=client_id,
                        subscription_id=subscription.id,
                        publication_id=publication.id,
                    )
                )
        return expected

    # ------------------------------------------------------------------
    # Message pump (virtual-time event loop)
    # ------------------------------------------------------------------
    def _run(self, messages: Sequence[Message]) -> None:
        """Inject client messages and drain the kernel to quiescence.

        Under latency tracking, the operation's queue-depth high-water
        mark becomes one sample of ``metrics.queue_depths``.
        """
        kernel = self.kernel
        kernel.reset_phase_high_water()
        kernel.schedule_many(self._injected(messages))
        self._drain()
        if self.metrics.track_latency:
            self.metrics.queue_depths.observe(kernel.phase_queue_depth_high_water)

    def _injected(self, messages: Iterable[Message]) -> Iterator[Message]:
        """Stamp client operations as entering the network now.

        A generator, so that under span recording each operation's
        ``injected`` span still directly precedes its ``enqueued`` one.
        """
        now = self.kernel.now
        obs = obs_probes.ACTIVE
        for message in messages:
            message.injected_at = now
            message.sent_at = now
            if obs is not None:
                obs.on_inject(message, now)
            yield message

    def _drain(self) -> None:
        kernel = self.kernel
        obs = obs_probes.ACTIVE
        counters = self.metrics.counters
        publication_messages = counters["publication_messages"]
        for message in kernel.drain_grouped():
            if type(message) is list:
                # Plain publication hops arrive as runs (one same-instant
                # delivery generation under the zero model, runs of one
                # otherwise): partition the run per receiving broker
                # (stably, so every broker processes its share in pop
                # order) and hand each share to the broker's handler — one
                # route lookup per broker.  The run's outgoing messages
                # are then scheduled in original run order, which
                # reproduces the one-at-a-time drain's heap sequence (and
                # therefore every downstream dedup race on cyclic
                # topologies) exactly.
                run = message
                by_recipient: Dict[str, List[int]] = {}
                for position, inner in enumerate(run):
                    by_recipient.setdefault(inner.recipient, []).append(
                        position
                    )
                run_outgoing: List[List[Message]] = [[]] * len(run)
                for recipient, positions in by_recipient.items():
                    share = [run[position] for position in positions]
                    if obs is not None:
                        for inner in share:
                            obs.on_hop_delivered(inner)
                    publication_messages.value += sum(
                        inner.sender is not None for inner in share
                    )
                    share_outgoing = self._handle_publications(
                        self.brokers[recipient], share
                    )
                    for position, outs in zip(positions, share_outgoing):
                        run_outgoing[position] = outs
                outgoing = [out for outs in run_outgoing for out in outs]
                if outgoing:
                    kernel.schedule_many(outgoing)
                continue
            if obs is not None:
                obs.on_hop_delivered(message)
            broker = self.brokers[message.recipient]
            if isinstance(message, SubscriptionMessage):
                if message.sender is not None:
                    counters["subscription_messages"].value += 1
                with stage("network.handle_subscription"):
                    outgoing, decisions = broker.handle_subscription(message)
                self._account_decisions(decisions)
            elif isinstance(message, UnsubscriptionMessage):
                if message.sender is not None:
                    counters["unsubscription_messages"].value += 1
                with stage("network.handle_unsubscription"):
                    outgoing, decisions = broker.handle_unsubscription(message)
                self._account_decisions(decisions)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown message type {type(message)!r}")
            if outgoing:
                kernel.schedule_many(outgoing)
        if not math.isfinite(kernel.now):
            # every later latency would be ``inf - inf``: a NaN report
            raise OverflowError(
                "the virtual clock overflowed under latency model "
                f"{self.latency_model.spec!r}"
            )

    def _handle_publications(
        self, broker: Broker, messages: Sequence[PublicationMessage]
    ) -> List[List[Message]]:
        """One broker's share of a delivery generation, through its handler."""
        dead_before = broker.dead_letter_publications
        with stage("network.handle_publication"):
            outgoing = broker.handle_publication_batch(messages)
        self.metrics.counters["dead_letter_publications"].value += (
            broker.dead_letter_publications - dead_before
        )
        return outgoing

    def _account_decisions(self, decisions) -> None:
        counters = self.metrics.counters
        for decision in decisions:
            counters["subsumption_checks"].value += 1
            counters["rspc_iterations"].value += decision.rspc_iterations
            if decision.merged is not None:
                counters["merged_advertisements"].value += 1
                counters["merge_false_volume"].value += decision.false_volume
            elif not decision.forwarded:
                counters["suppressed_subscriptions"].value += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_routing_entries(self) -> int:
        """Sum of routing-table sizes across all brokers (memory proxy)."""
        return sum(broker.table_size for broker in self.brokers.values())

    def routing_table_sizes(self) -> Dict[str, int]:
        """Routing-table size per broker."""
        return {broker_id: broker.table_size for broker_id, broker in self.brokers.items()}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """A no-op: the network holds no process or OS resource.

        Kept so that callers written for closable backends can close a
        network unconditionally.
        """

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BrokerNetwork(brokers={len(self.brokers)}, "
            f"policy={policy_value(self.policy)!r}, "
            f"latency={self.latency_model.spec!r})"
        )
