"""A single publish/subscribe broker.

Brokers implement the behaviour described in Section 2 of the paper:

* a new subscription received from a local client or a neighbour is stored
  in the routing table and — unless a covering decision suppresses it —
  forwarded to every other neighbour (subscription flooding);
* a publication received from a local client or a neighbour is matched
  against the routing table and forwarded along the reverse path of each
  matching subscription, or delivered to the local subscriber that issued
  it (reverse path forwarding);
* the per-link reduction decision is pluggable
  (:mod:`repro.core.policies`); under the merging strategies local
  delivery also runs through merged filters, whose extra notifications
  are counted as false positives.

Covering state lives in one place: each link is a
:class:`~repro.core.store.SubscriptionStore` (:attr:`Broker.links`) — what
is advertised to that neighbour, what is withheld from it and on whose
account, and what each merged box sent there stands for.  The broker
keeps routing, messages and delivery, and turns store outcomes into
messages: a forwarded decision is an advertisement; a merge is the box,
then the retractions of what it replaces (links are FIFO, so the
neighbour never re-advertises in between); an advertised subscription or
a box whose last member left is retracted, then the entries withheld on
it are re-decided.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.broker.messages import (
    Message,
    NotificationRecord,
    PublicationMessage,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from repro.broker.routing import RouteEntry, RoutingTable, SourceKind
from repro.core.merging import cheapest_merge
from repro.core.policies import (
    DEFAULT_MERGE_BUDGET,
    ReductionDecision,
    ReductionStrategy,
    make_strategy,
)
from repro.core.store import CoveringPolicyName, StoreDecision, SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.model.subscriptions import Subscription
from repro.obs import probes as obs_probes
from repro.obs.probes import stage

__all__ = ["Broker", "SubscriptionDecision"]


@dataclass
class SubscriptionDecision(ReductionDecision):
    """A reduction decision for one subscription toward one neighbour.

    Covering is decided *per link*, against what this broker has advertised
    to that neighbour — the Figure 1 walkthrough, where ``B4`` forwards
    ``s2`` to ``B3`` but not to ``B5``/``B7``.  The checker's ``result`` is
    not kept.
    """

    broker: str = ""
    neighbor: str = ""


@dataclass
class _LocalMergeGroup:
    """One merged delivery group over a broker's local subscriptions."""

    #: bounding box of the members' subscriptions (the matched filter)
    filter: Subscription
    #: the local route entries the group represents
    members: List[RouteEntry] = field(default_factory=list)


class Broker:
    """One node of the broker overlay.

    Parameters
    ----------
    broker_id:
        Unique identifier of the broker.
    neighbors:
        Identifiers of the directly connected brokers.
    policy:
        Reduction strategy applied when deciding whether (and in what
        form) to propagate a subscription; a name from
        :data:`~repro.core.policies.STRATEGY_NAMES` or a strategy
        instance.
    checker:
        Group-subsumption checker used by the probabilistic strategies
        (one per broker so each has an independent random stream; every
        link consults it, in decision order).
    merge_budget:
        False-volume budget of the merging strategies (ignored by the
        covering-only ones).
    dedup_window:
        Maximum number of recently seen publication identifiers kept for
        loop suppression.  The network caps every drain at
        ``dedup_window`` publications in flight, so no identifier is
        evicted before its last duplicate arrives: memory stays flat and
        delivery is unchanged.
    """

    def __init__(
        self,
        broker_id: str,
        neighbors: Sequence[str] = (),
        policy: CoveringPolicyName = CoveringPolicyName.GROUP,
        checker: Optional[SubsumptionChecker] = None,
        dedup_window: int = 4096,
        record_latencies: bool = False,
        merge_budget: float = DEFAULT_MERGE_BUDGET,
    ):
        if dedup_window < 1:
            raise ValueError("dedup_window must be positive")
        self.id = broker_id
        self._checker = checker or SubsumptionChecker()
        self.strategy: ReductionStrategy = make_strategy(
            policy, checker=self._checker, merge_budget=merge_budget
        )
        self.policy = self.strategy.name
        self.merge_budget = merge_budget
        self.routing = RoutingTable()
        self.dedup_window = dedup_window
        #: local subscribers attached to this broker
        self.local_subscribers: Set[str] = set()
        #: neighbour -> the link's covering state; every link shares the
        #: broker's one strategy (and so its checker)
        self.links: Dict[str, SubscriptionStore] = {}
        for neighbor in neighbors:
            self.connect(neighbor)
        #: merged delivery groups over the local subscriptions (merging
        #: strategies only — models the broker matching one coarse filter
        #: per group and leaving the final cut to client-side filtering)
        self._local_groups: List[_LocalMergeGroup] = []
        #: publications received from a neighbour that matched nothing
        #: here — the dead-end traffic merged advertisements over-attract
        self.dead_letter_publications = 0
        #: notifications delivered through a merged local filter although
        #: the member's own subscription did not match the publication
        self.false_positive_deliveries = 0
        #: recently processed publication ids (bounded loop suppression)
        self._seen_publications: "OrderedDict[str, None]" = OrderedDict()
        #: covering decisions taken at this broker
        self.decisions: List[SubscriptionDecision] = []
        #: notifications delivered to local subscribers
        self.delivered: List[NotificationRecord] = []
        #: whether to record per-notification delivery latency (enabled by
        #: the network when a non-default latency model is active, so
        #: untimed runs don't accumulate a list of zeros)
        self.record_latencies = record_latencies
        #: virtual-time delivery latency of each notification in
        #: :attr:`delivered` (parallel list; empty unless
        #: :attr:`record_latencies`)
        self.delivered_latencies: List[float] = []

    @property
    def checker(self) -> SubsumptionChecker:
        """The group-subsumption checker backing the reduction strategy."""
        return self._checker

    @checker.setter
    def checker(self, value: SubsumptionChecker) -> None:
        # Keep the strategy in sync, so swapping a broker's checker (the
        # failure-injection tests do) swaps the one actually consulted.
        self._checker = value
        if hasattr(self.strategy, "checker"):
            self.strategy.checker = value

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def connect(self, neighbor_id: str) -> None:
        """Add a neighbouring broker."""
        if neighbor_id != self.id and neighbor_id not in self.links:
            self.links[neighbor_id] = SubscriptionStore(self.strategy)

    def attach_subscriber(self, subscriber_id: str) -> None:
        """Register a local client."""
        self.local_subscribers.add(subscriber_id)

    # ------------------------------------------------------------------
    # Covering decisions, as messages
    # ------------------------------------------------------------------
    @stage("broker.decision")
    def _on_link(self, call, argument):
        """Run a link-store call that may decide, in ``broker.decision``."""
        return call(argument)

    def _hop(
        self,
        message: Message,
        neighbor: str,
        payload: Union[Subscription, str],
        origin: str,
    ) -> Message:
        """The advertisement of a subscription, or the retraction of an id,
        toward ``neighbor`` one hop on from ``message``."""
        fields = dict(
            sender=self.id,
            recipient=neighbor,
            hops=message.hops + 1,
            origin=origin,
            injected_at=message.injected_at,
            sent_at=message.delivered_at,
            trace_id=message.trace_id,
        )
        if isinstance(payload, str):
            return UnsubscriptionMessage(subscription_id=payload, **fields)
        return SubscriptionMessage(subscription=payload, **fields)

    def _announce(
        self, decision: StoreDecision, neighbor: str, message: Message
    ) -> List[Message]:
        """Record one link decision and return the messages it sends."""
        subscription = decision.subscription
        self.decisions.append(
            SubscriptionDecision(
                **{**vars(decision), "result": None}, broker=self.id, neighbor=neighbor
            )
        )
        obs = obs_probes.ACTIVE
        if obs is not None and obs.spans is not None and message.trace_id:
            obs.spans.record(
                message.trace_id,
                "subscription",
                "decision",
                message.delivered_at,
                broker=self.id,
                link=f"{self.id}->{neighbor}",
                status=(
                    "merged" if decision.merged is not None
                    else "forwarded" if decision.forwarded
                    else "suppressed"
                ),
                subscription_id=subscription.id,
                candidates=decision.candidates_considered,
                rspc_iterations=decision.rspc_iterations,
            )
        if decision.merged is not None:
            return [self._hop(message, neighbor, decision.merged, self.id)] + [
                self._hop(message, neighbor, replaced_id, self.id)
                for replaced_id in decision.replaced
            ]
        if decision.forwarded:
            # an advertisement carries the origin of its route entry
            origin = self.routing.get(subscription.id).origin or self.id
            return [self._hop(message, neighbor, subscription, origin)]
        return []

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_subscription(
        self, message: SubscriptionMessage
    ) -> Tuple[List[Message], List[SubscriptionDecision]]:
        """Process a subscription message.

        The subscription is always recorded in the routing table (so local
        delivery and reverse paths keep working); it is then decided on
        every link except the sender's.  Returns the outgoing messages and
        the per-link decisions taken.
        """
        subscription = message.subscription
        if subscription.id in self.routing:
            return [], []

        local = message.sender is None
        source = RouteEntry(
            subscription=subscription,
            source_kind=SourceKind.LOCAL if local else SourceKind.NEIGHBOR,
            source_id=(
                subscription.subscriber or "anonymous" if local else message.sender
            ),
            origin=self.id if local else message.origin,
        )
        self.routing.add(source)
        if local and self.strategy.merges:
            self._local_group_add(source)

        first = len(self.decisions)
        outgoing: List[Message] = []
        for neighbor, link in self.links.items():
            if neighbor == message.sender:
                continue
            decision = self._on_link(link.add, subscription)
            outgoing.extend(self._announce(decision, neighbor, message))
        return outgoing, self.decisions[first:]

    def handle_unsubscription(
        self, message: UnsubscriptionMessage
    ) -> Tuple[List[Message], List[SubscriptionDecision]]:
        """Process an unsubscription, returning outgoing messages + decisions.

        Beyond retracting the subscription on every link it was advertised
        on, its departure can *uncover* subscriptions withheld on its
        account: each link store re-decides them against what it still
        advertises, and the ones no longer covered are re-advertised, so
        downstream brokers regain the reverse path.  (Without this, a
        covered subscription's route is silently lost forever the moment
        its coverer unsubscribes.)  The re-decisions are returned so the
        network accounts for them like any other covering decision.
        """
        uid = message.subscription_id
        entry = self.routing.remove(uid)
        if entry is None:
            return [], []
        if entry.source_kind is SourceKind.LOCAL and self.strategy.merges:
            self._local_group_remove(uid)
        first = len(self.decisions)
        outgoing: List[Message] = []
        for neighbor, link in self.links.items():
            if neighbor == message.sender:
                # On a cyclic overlay the retraction can come from a link
                # the subscription was decided on.  What is advertised
                # there stays; an entry withheld there is dropped, since it
                # must never be re-decided once its route has gone.
                if uid in link.cover_links:
                    link.remove(uid)
                continue
            outcome = self._on_link(link.remove_detailed, uid)
            if outcome.was_active:
                outgoing.append(self._hop(message, neighbor, uid, message.origin))
            for box in outcome.retracted:
                outgoing.append(self._hop(message, neighbor, box.id, message.origin))
            for decision in outcome.reinsertions:
                outgoing.extend(self._announce(decision, neighbor, message))
        return outgoing, self.decisions[first:]

    def handle_publication_batch(
        self, messages: Sequence[PublicationMessage]
    ) -> List[List[Message]]:
        """Process publications delivered at one instant, in order.

        The one publication handler.  A publication is sent to each
        neighbour from which a matching subscription was received (once
        per neighbour, in routing-table order) and delivered to each
        matching local subscriber.  The batch travels as a unit: one dedup
        sweep, one routing-table lookup for the fresh publications, one
        delivering and forwarding pass.  Returns one
        outgoing-message list per input message (empty for duplicates), so
        the caller can restore any global scheduling order.
        """
        obs = obs_probes.ACTIVE
        spans = obs.spans if obs is not None else None

        with stage("broker.dedup"):
            seen = self._seen_publications
            window = self.dedup_window
            fresh: List[int] = []
            for position, message in enumerate(messages):
                publication_id = message.publication.id
                if publication_id not in seen:
                    seen[publication_id] = None
                    while len(seen) > window:
                        seen.popitem(last=False)
                    fresh.append(position)
        if spans is not None:
            fresh_positions = set(fresh)
            for position, message in enumerate(messages):
                if message.trace_id:
                    spans.record(
                        message.trace_id,
                        "publication",
                        "dedup",
                        message.delivered_at,
                        broker=self.id,
                        status=(
                            "fresh" if position in fresh_positions else "duplicate"
                        ),
                        publication_id=message.publication.id,
                    )
        outgoing: List[List[Message]] = [[] for _ in messages]
        if not fresh:
            return outgoing

        with stage("broker.route_lookup"):
            lookups = self.routing.matching_entries_batch(
                [messages[position].publication for position in fresh]
            )
        if spans is not None:
            for position, (matching, route_tests) in zip(fresh, lookups):
                message = messages[position]
                if message.trace_id:
                    spans.record(
                        message.trace_id,
                        "publication",
                        "route-lookup",
                        message.delivered_at,
                        broker=self.id,
                        matches=len(matching),
                        tests=route_tests,
                    )

        with stage("broker.match_forward"):
            merges = self.strategy.merges
            for position, (matching, _tests) in zip(fresh, lookups):
                message = messages[position]
                sender = message.sender
                targets: List[str] = []
                delivered_any = False
                for entry in matching:
                    if entry.source_kind is SourceKind.LOCAL:
                        if not merges:
                            self._deliver(entry, message)
                            delivered_any = True
                    elif entry.source_id != sender and entry.source_id not in targets:
                        targets.append(entry.source_id)
                if merges:
                    # Local delivery runs through the merged group filters:
                    # every member of a matching group is notified, even
                    # when its own subscription does not match (client-side
                    # filtering) — those extra notifications are the
                    # merge's false positives.
                    delivered_any = self._deliver_merged_local(message)
                if sender is not None and not delivered_any and not targets:
                    # A neighbour routed the publication here although
                    # nothing matches: dead-end traffic attracted by an
                    # over-approximating (merged) advertisement.
                    self.dead_letter_publications += 1
                if spans is not None and message.trace_id:
                    spans.record(
                        message.trace_id,
                        "publication",
                        "match",
                        message.delivered_at,
                        broker=self.id,
                        status=(
                            "forwarded" if targets
                            else "delivered" if delivered_any
                            else "dead-end"
                        ),
                        local=int(delivered_any),
                        forwards=len(targets),
                    )
                if targets:
                    outgoing[position] = [
                        PublicationMessage(
                            sender=self.id,
                            recipient=target,
                            hops=message.hops + 1,
                            publication=message.publication,
                            origin=message.origin or self.id,
                            injected_at=message.injected_at,
                            sent_at=message.delivered_at,
                            trace_id=message.trace_id,
                        )
                        for target in targets
                    ]
        return outgoing

    def _deliver(self, entry: RouteEntry, message: PublicationMessage) -> None:
        """Record one notification to a local subscriber."""
        self.delivered.append(
            NotificationRecord(
                broker=self.id,
                subscriber=entry.source_id,
                subscription_id=entry.subscription.id,
                publication_id=message.publication.id,
            )
        )
        if self.record_latencies:
            self.delivered_latencies.append(
                message.delivered_at - message.injected_at
            )
        obs = obs_probes.ACTIVE
        if obs is not None and obs.spans is not None and message.trace_id:
            obs.spans.record(
                message.trace_id,
                "publication",
                "deliver",
                message.injected_at,
                message.delivered_at,
                broker=self.id,
                subscriber=entry.source_id,
                subscription_id=entry.subscription.id,
                publication_id=message.publication.id,
                hops=message.hops,
            )

    def _deliver_merged_local(self, message: PublicationMessage) -> bool:
        """Deliver through the merged local filters; returns whether any fired."""
        publication = message.publication
        delivered = False
        for group in self._local_groups:
            if not group.filter.matches(publication):
                continue
            for entry in group.members:
                self._deliver(entry, message)
                delivered = True
                if not entry.subscription.matches(publication):
                    self.false_positive_deliveries += 1
        return delivered

    # ------------------------------------------------------------------
    # Merged local delivery groups
    # ------------------------------------------------------------------
    def _local_group_add(self, entry: RouteEntry) -> None:
        """Attach a local subscription to its cheapest in-budget group.

        Shares the merging strategies' greedy rule (`cheapest_merge`): the
        group whose filter absorbs the newcomer with the smallest relative
        false volume wins; when no group fits the budget the subscription
        seeds a group of its own.
        """
        found = cheapest_merge(
            entry.subscription,
            [group.filter for group in self._local_groups],
            self.merge_budget,
        )
        if found is None:
            self._local_groups.append(
                _LocalMergeGroup(filter=entry.subscription, members=[entry])
            )
            return
        group_index, outcome = found
        group = self._local_groups[group_index]
        group.filter = outcome.merged
        group.members.append(entry)

    def _local_group_remove(self, subscription_id: str) -> None:
        """Detach a local subscription from its group, re-tightening it."""
        for index, group in enumerate(self._local_groups):
            members = [
                entry
                for entry in group.members
                if entry.subscription.id != subscription_id
            ]
            if len(members) == len(group.members):
                continue
            if not members:
                del self._local_groups[index]
                return
            group.members = members
            hull = members[0].subscription
            for entry in members[1:]:
                hull = hull.union_hull(entry.subscription)
            group.filter = hull
            return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def table_size(self) -> int:
        """Number of subscriptions stored in the routing table."""
        return len(self.routing)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Broker({self.id!r}, neighbors={len(self.links)}, "
            f"subscriptions={len(self.routing)})"
        )
