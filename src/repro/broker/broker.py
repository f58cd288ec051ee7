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
  (:mod:`repro.core.policies`): ``none`` (always forward), ``pairwise``
  (classical single-subscription covering), ``group`` (the paper's
  probabilistic union covering), ``merging`` (advertise merged bounding
  boxes upstream — smaller routing state, false-positive traffic and
  deliveries) or ``hybrid`` (cover first, merge the residue).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.broker.messages import (
    Message,
    NotificationRecord,
    PublicationMessage,
    SubscriptionMessage,
    UnsubscriptionMessage,
)
from repro.broker.routing import RouteEntry, RoutingTable, SourceKind
from repro.core.arena import CandidateSet
from repro.core.merging import cheapest_merge
from repro.core.policies import (
    DEFAULT_MERGE_BUDGET,
    ReductionStrategy,
    make_strategy,
)
from repro.core.store import CoveringPolicyName
from repro.core.subsumption import SubsumptionChecker
from repro.model.subscriptions import Subscription

__all__ = ["Broker", "SubscriptionDecision"]


@dataclass
class SubscriptionDecision:
    """Reduction decision for one subscription toward one neighbour.

    Covering-based routing decides *per link* whether a subscription still
    has to be forwarded: the candidate set is exactly the set of
    subscriptions this broker has previously forwarded to that neighbour
    (what the neighbour already knows from us), which reproduces the
    Figure 1 walkthrough where ``B4`` forwards ``s2`` to ``B3`` but not to
    ``B5``/``B7``.
    """

    broker: str
    subscription_id: str
    neighbor: str
    forwarded: bool
    candidates_considered: int
    rspc_iterations: int = 0
    #: identifiers of the previously forwarded subscriptions the decision
    #: relied on to suppress forwarding (the single coverer under
    #: ``pairwise``, the MCS minimized cover set under ``group``); empty
    #: when the subscription was forwarded
    covered_by: Tuple[str, ...] = ()
    #: the bounding box advertised instead of the subscription, when the
    #: strategy replaced it (and ``replaced``) with a merge
    merged: Optional[Subscription] = None
    #: previously forwarded advertisement ids the merged box absorbs
    replaced: Tuple[str, ...] = ()
    #: over-approximated volume introduced by the merge (0 otherwise)
    false_volume: float = 0.0


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
        (one per broker so each has an independent random stream).
    merge_budget:
        False-volume budget of the merging strategies (ignored by the
        covering-only ones).
    dedup_window:
        Maximum number of recently seen publication identifiers kept for
        loop suppression.  Duplicates can only arrive while a publication
        is still in flight (each broker forwards it at most once), and the
        network caps every timed drain at ``dedup_window`` concurrent
        publications, so no identifier is ever evicted before its last
        in-flight duplicate arrives; the bounded window therefore keeps
        memory flat over unbounded publication streams without changing
        delivery behaviour.
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
        obs=None,
    ):
        if dedup_window < 1:
            raise ValueError("dedup_window must be positive")
        #: optional :class:`~repro.obs.probes.ObsProbe`; ``None`` (the
        #: default) keeps every handler on the pre-observability path
        self._obs = obs
        self.id = broker_id
        self.neighbors: List[str] = list(neighbors)
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
        #: per-neighbour record of the subscriptions forwarded to it
        self.sent: Dict[str, Dict[str, "object"]] = {}
        #: per-neighbour candidate-set snapshot (contiguous bounds shared
        #: by consecutive covering decisions against an unchanged link)
        self._link_candidates: Dict[str, CandidateSet] = {}
        #: per-neighbour record of the subscriptions *withheld* from it:
        #: neighbour -> suppressed subscription id -> identifiers of the
        #: forwarded subscriptions whose coverage justified the suppression
        #: (the re-advertisement dependencies of the unsubscription path)
        self.suppressed: Dict[str, Dict[str, Set[str]]] = {}
        #: per-neighbour membership of merged advertisements: neighbour ->
        #: merged advertisement id -> original subscription ids the merged
        #: bounding box represents on that link
        self.merge_members: Dict[str, Dict[str, Set[str]]] = {}
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
        if neighbor_id != self.id and neighbor_id not in self.neighbors:
            self.neighbors.append(neighbor_id)

    def attach_subscriber(self, subscriber_id: str) -> None:
        """Register a local client."""
        self.local_subscribers.add(subscriber_id)

    # ------------------------------------------------------------------
    # Covering decision
    # ------------------------------------------------------------------
    def _candidates_for(self, neighbor: str) -> CandidateSet:
        """Snapshot of the advertisements already sent to ``neighbor``.

        The snapshot (candidate order, stacked bounds, signed matrix) is
        reused as long as the link's advertisement set is unchanged — one
        cheap id-tuple comparison per decision replaces re-stacking the
        candidate bounds, e.g. for every subscription a departure
        re-checks against the same link.  Any membership change yields a
        new snapshot: the previous one extended by a row when exactly one
        advertisement was appended, a full re-stack otherwise.
        """
        sent_here = self.sent.get(neighbor)
        cached = self._link_candidates.get(neighbor)
        if not sent_here:
            if cached is not None and not len(cached):
                return cached
            snapshot = CandidateSet(())
        else:
            ids = tuple(sent_here)
            if cached is not None and cached.ids == ids:
                return cached
            if cached is not None and cached.ids == ids[:-1]:
                snapshot = cached.extended(sent_here[ids[-1]])
            else:
                snapshot = CandidateSet(list(sent_here.values()))
        self._link_candidates[neighbor] = snapshot
        return snapshot

    def _coverage_decision(
        self, subscription, neighbor: str, message: Optional[Message] = None
    ) -> SubscriptionDecision:
        """Decide what to do with ``subscription`` toward ``neighbor``.

        The candidate set is the set of advertisements already forwarded
        to that neighbour; the verdict (forward / suppress / replace with
        a merged bounding box) comes from the broker's pluggable
        reduction strategy.
        """
        obs = self._obs
        if obs is not None:
            obs.stage_push("broker.decision")
            try:
                decision = self.strategy.decide(
                    subscription, self._candidates_for(neighbor)
                )
            finally:
                obs.stage_pop()
            if obs.spans is not None and message is not None and message.trace_id:
                if decision.merged is not None:
                    status = "merged"
                elif decision.forwarded:
                    status = "forwarded"
                else:
                    status = "suppressed"
                obs.spans.record(
                    message.trace_id,
                    "subscription",
                    "decision",
                    message.delivered_at,
                    broker=self.id,
                    link=f"{self.id}->{neighbor}",
                    status=status,
                    subscription_id=subscription.id,
                    candidates=decision.candidates_considered,
                    rspc_iterations=decision.rspc_iterations,
                )
        else:
            decision = self.strategy.decide(
                subscription, self._candidates_for(neighbor)
            )
        return SubscriptionDecision(
            broker=self.id,
            subscription_id=subscription.id,
            neighbor=neighbor,
            forwarded=decision.forwarded,
            candidates_considered=decision.candidates_considered,
            rspc_iterations=decision.rspc_iterations,
            covered_by=decision.covered_by,
            merged=decision.merged,
            replaced=decision.replaced,
            false_volume=decision.false_volume,
        )

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_subscription(
        self, message: SubscriptionMessage
    ) -> Tuple[List[Message], List[SubscriptionDecision]]:
        """Process a subscription message.

        The subscription is always recorded in the routing table (so local
        delivery and reverse paths keep working); it is then forwarded to
        every neighbour except the sender, unless the per-link covering
        decision suppresses it.  Returns the outgoing messages and the
        per-link decisions taken.
        """
        subscription = message.subscription
        if subscription.id in self.routing:
            return [], []

        if message.sender is None:
            source = RouteEntry(
                subscription=subscription,
                source_kind=SourceKind.LOCAL,
                source_id=subscription.subscriber or "anonymous",
                origin=self.id,
            )
        else:
            source = RouteEntry(
                subscription=subscription,
                source_kind=SourceKind.NEIGHBOR,
                source_id=message.sender,
                origin=message.origin,
            )
        self.routing.add(source)
        if source.source_kind is SourceKind.LOCAL and self.strategy.merges:
            self._local_group_add(source)

        outgoing: List[Message] = []
        decisions: List[SubscriptionDecision] = []
        for neighbor in self.neighbors:
            if neighbor == message.sender:
                continue
            decision = self._coverage_decision(subscription, neighbor, message)
            decisions.append(decision)
            self.decisions.append(decision)
            if decision.merged is not None:
                outgoing.extend(
                    self._apply_merge_advertisement(decision, message)
                )
                continue
            if not decision.forwarded:
                self.suppressed.setdefault(neighbor, {})[subscription.id] = set(
                    decision.covered_by
                )
                continue
            self.sent.setdefault(neighbor, {})[subscription.id] = subscription
            outgoing.append(
                SubscriptionMessage(
                    sender=self.id,
                    recipient=neighbor,
                    hops=message.hops + 1,
                    subscription=subscription,
                    origin=message.origin or self.id,
                    injected_at=message.injected_at,
                    sent_at=message.delivered_at,
                    trace_id=message.trace_id,
                )
            )
        return outgoing, decisions

    def _apply_merge_advertisement(
        self, decision: SubscriptionDecision, message: Message
    ) -> List[Message]:
        """Replace per-link advertisements with the decision's merged box.

        The merged advertisement is sent *before* the retractions of the
        advertisements it absorbs (links are FIFO), so the upstream broker
        never re-advertises the suppressed subscriptions in between.
        Suppressions that were justified by a replaced advertisement are
        rewritten to depend on the merged box — it covers everything the
        replaced advertisement covered.
        """
        neighbor = decision.neighbor
        merged = decision.merged
        sent_here = self.sent.setdefault(neighbor, {})
        members_here = self.merge_members.setdefault(neighbor, {})
        member_set: Set[str] = {decision.subscription_id}
        outgoing: List[Message] = [
            SubscriptionMessage(
                sender=self.id,
                recipient=neighbor,
                hops=message.hops + 1,
                subscription=merged,
                origin=self.id,
                injected_at=message.injected_at,
                sent_at=message.delivered_at,
                trace_id=message.trace_id,
            )
        ]
        for replaced_id in decision.replaced:
            sent_here.pop(replaced_id, None)
            member_set |= members_here.pop(replaced_id, {replaced_id})
            outgoing.append(
                UnsubscriptionMessage(
                    sender=self.id,
                    recipient=neighbor,
                    hops=message.hops + 1,
                    subscription_id=replaced_id,
                    origin=self.id,
                    injected_at=message.injected_at,
                    sent_at=message.delivered_at,
                    trace_id=message.trace_id,
                )
            )
        sent_here[merged.id] = merged
        members_here[merged.id] = member_set
        replaced_ids = set(decision.replaced)
        for covers in self.suppressed.get(neighbor, {}).values():
            if covers & replaced_ids:
                covers -= replaced_ids
                covers.add(merged.id)
        return outgoing

    def handle_unsubscription(
        self, message: UnsubscriptionMessage
    ) -> Tuple[List[Message], List[SubscriptionDecision]]:
        """Process an unsubscription, returning outgoing messages + decisions.

        Beyond cancelling the route on every link it was forwarded to, the
        departure of a subscription can *uncover* subscriptions whose
        forwarding it previously suppressed: those are re-checked against
        the link's remaining forwarded set and re-advertised when no longer
        covered, so downstream brokers regain the reverse path.  (Without
        this, a covered subscription's route is silently lost forever the
        moment its coverer unsubscribes.)  The re-check decisions are
        returned so the network accounts for them like any other covering
        decision.
        """
        uid = message.subscription_id
        entry = self.routing.remove(uid)
        if entry is None:
            return [], []
        if entry.source_kind is SourceKind.LOCAL and self.strategy.merges:
            self._local_group_remove(uid)
        outgoing: List[Message] = []
        decisions: List[SubscriptionDecision] = []
        for neighbor in self.neighbors:
            if neighbor == message.sender:
                continue
            # The departing subscription no longer needs re-advertising.
            self.suppressed.get(neighbor, {}).pop(uid, None)
            forwarded_here = self.sent.get(neighbor, {}).pop(uid, None)
            if forwarded_here is None:
                # The neighbour never learnt the subscription directly —
                # but it may ride inside a merged advertisement, whose
                # membership must shrink (and, once empty, be retracted).
                more_out, more_decisions = self._shrink_merged_membership(
                    neighbor, uid, message
                )
                outgoing.extend(more_out)
                decisions.extend(more_decisions)
                continue
            outgoing.append(
                UnsubscriptionMessage(
                    sender=self.id,
                    recipient=neighbor,
                    hops=message.hops + 1,
                    subscription_id=uid,
                    origin=message.origin,
                    injected_at=message.injected_at,
                    sent_at=message.delivered_at,
                    trace_id=message.trace_id,
                )
            )
            more_out, more_decisions = self._readvertise_dependents(
                neighbor, uid, message
            )
            outgoing.extend(more_out)
            decisions.extend(more_decisions)
        return outgoing, decisions

    def _readvertise_dependents(
        self, neighbor: str, departed_id: str, message: Message
    ) -> Tuple[List[Message], List[SubscriptionDecision]]:
        """Re-check subscriptions whose suppression relied on ``departed_id``.

        Each dependent is run through a fresh reduction decision against
        the link's remaining advertisements and re-advertised (directly or
        inside a new merged box) when no longer covered, so downstream
        brokers regain the reverse path.
        """
        suppressed_here = self.suppressed.get(neighbor, {})
        dependents = [
            sid for sid, covers in suppressed_here.items() if departed_id in covers
        ]
        outgoing: List[Message] = []
        decisions: List[SubscriptionDecision] = []
        for sid in dependents:
            del suppressed_here[sid]
            dependent = self.routing.get(sid)
            if dependent is None:
                continue
            decision = self._coverage_decision(
                dependent.subscription, neighbor, message
            )
            decisions.append(decision)
            self.decisions.append(decision)
            if decision.merged is not None:
                outgoing.extend(
                    self._apply_merge_advertisement(decision, message)
                )
                continue
            if not decision.forwarded:
                suppressed_here[sid] = set(decision.covered_by)
                continue
            self.sent.setdefault(neighbor, {})[sid] = dependent.subscription
            outgoing.append(
                SubscriptionMessage(
                    sender=self.id,
                    recipient=neighbor,
                    hops=message.hops + 1,
                    subscription=dependent.subscription,
                    origin=dependent.origin or self.id,
                    injected_at=message.injected_at,
                    sent_at=message.delivered_at,
                    trace_id=message.trace_id,
                )
            )
        return outgoing, decisions

    def _shrink_merged_membership(
        self, neighbor: str, uid: str, message: Message
    ) -> Tuple[List[Message], List[SubscriptionDecision]]:
        """Drop ``uid`` from the merged advertisement representing it.

        While other members remain, the (over-approximating) merged box
        stays advertised — retracting or re-tightening it would cost a
        message per departure, and coverage of the remaining members still
        holds.  When the last member leaves, the merged advertisement is
        retracted and suppressions that depended on it are re-checked.
        """
        members_here = self.merge_members.get(neighbor, {})
        for merged_id, member_set in members_here.items():
            if uid not in member_set:
                continue
            member_set.discard(uid)
            if member_set:
                return [], []
            del members_here[merged_id]
            self.sent.get(neighbor, {}).pop(merged_id, None)
            outgoing: List[Message] = [
                UnsubscriptionMessage(
                    sender=self.id,
                    recipient=neighbor,
                    hops=message.hops + 1,
                    subscription_id=merged_id,
                    origin=message.origin,
                    injected_at=message.injected_at,
                    sent_at=message.delivered_at,
                    trace_id=message.trace_id,
                )
            ]
            more_out, decisions = self._readvertise_dependents(
                neighbor, merged_id, message
            )
            return outgoing + more_out, decisions
        return [], []

    def handle_publication(self, message: PublicationMessage) -> List[Message]:
        """Process one publication: :meth:`handle_publication_batch` of one."""
        return self.handle_publication_batch((message,))[0]

    def handle_publication_batch(
        self, messages: Sequence[PublicationMessage], values=None
    ) -> List[List[Message]]:
        """Process publications delivered at one instant, in order.

        The one publication handler.  Forwarding follows the reverse path
        of every matching subscription: a publication is sent to each
        neighbour from which at least one matching subscription was
        received (at most once per neighbour, in routing-table order) and
        delivered to each matching local subscriber.  The batch travels
        the stack as a unit — one bounded-window dedup sweep, one
        :meth:`~repro.broker.routing.RoutingTable.matching_entries_batch`
        lookup for the fresh publications (``values`` optionally carries
        the batch's points pre-stacked as a ``(B, m)`` array), then one
        pass that delivers, picks the targets and builds the forwarded
        copies — and returns one outgoing-message list per input message
        (empty for deduplicated members) so the caller can restore any
        global scheduling order.
        """
        obs = self._obs
        spans = obs.spans if obs is not None else None

        if obs is not None:
            obs.stage_push("broker.dedup")
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
        if obs is not None:
            obs.stage_pop()
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
        if len(fresh) != len(messages) and values is not None:
            values = values[fresh]

        if obs is not None:
            obs.stage_push("broker.route_lookup")
        try:
            lookups = self.routing.matching_entries_batch(
                [messages[position].publication for position in fresh], values
            )
        finally:
            if obs is not None:
                obs.stage_pop()
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

        if obs is not None:
            obs.stage_push("broker.match_forward")
        merges = self.strategy.merges
        try:
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
                    delivered_any = self._deliver_merged_local(
                        message.publication, message
                    )
                if sender is not None and not delivered_any and not targets:
                    # A neighbour routed the publication here although
                    # nothing matches: dead-end traffic attracted by an
                    # over-approximating (merged) advertisement.
                    self.dead_letter_publications += 1
                if spans is not None and message.trace_id:
                    if targets:
                        status = "forwarded"
                    else:
                        status = "delivered" if delivered_any else "dead-end"
                    spans.record(
                        message.trace_id,
                        "publication",
                        "match",
                        message.delivered_at,
                        broker=self.id,
                        status=status,
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
        finally:
            if obs is not None:
                obs.stage_pop()
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
        obs = self._obs
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

    def _deliver_merged_local(
        self, publication, message: PublicationMessage
    ) -> bool:
        """Deliver through the merged local filters; returns whether any fired."""
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
            f"Broker({self.id!r}, neighbors={len(self.neighbors)}, "
            f"subscriptions={len(self.routing)})"
        )
