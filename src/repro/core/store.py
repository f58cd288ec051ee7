"""Subscription-set maintenance under a covering policy.

A broker (or a standalone matching server) keeps two subscription pools:

* the **active** set — subscriptions that are *not* covered by the rest and
  therefore must be forwarded to neighbours and matched first;
* the **covered** set — subscriptions declared redundant for forwarding but
  still needed locally for notification delivery (Algorithm 5 falls back to
  them only when an active subscription matched).

:class:`SubscriptionStore` maintains the two pools incrementally under a
pluggable :class:`~repro.core.policies.ReductionStrategy` (``none``,
``pairwise``, ``group``, ``merging``, ``hybrid``, or any strategy
registered with :func:`~repro.core.policies.register_strategy`).  All
policy branching lives in :mod:`repro.core.policies`; the store only
*applies* decisions: forwarded subscriptions join the active pool,
suppressed ones the covered pool, and replaced-by-merged decisions swap
the absorbed active subscriptions for the merged bounding box (the
absorbed originals stay in the covered pool so notification delivery
remains exact).

The store also records which subscription(s) covered each demoted entry,
which the matching engine's multi-level optimisation and the unsubscription
path (promote covered subscriptions when their coverer leaves) rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.arena import CandidateSet, SubscriptionArena
from repro.core.policies import (
    DEFAULT_MERGE_BUDGET,
    ReductionDecision,
    ReductionPolicyName,
    ReductionStrategy,
    make_strategy,
)
from repro.core.results import SubsumptionResult
from repro.core.subsumption import SubsumptionChecker
from repro.model.errors import ValidationError
from repro.model.subscriptions import Subscription

__all__ = [
    "CoveringPolicyName",
    "RemovalOutcome",
    "StoreDecision",
    "SubscriptionStore",
]

#: historical name of the policy enum, kept as the public alias — the
#: reduction-strategy layer owns the definition now
CoveringPolicyName = ReductionPolicyName


@dataclass
class StoreDecision:
    """What happened when a subscription was added to the store.

    Attributes
    ----------
    subscription:
        The subscription that was added.
    forwarded:
        Whether the subscription joined the active set (and should be
        propagated to neighbours).
    covered_by:
        Identifiers of the subscriptions that cover it (for pair-wise: the
        single coverer; for group: the MCS minimized cover set; for a
        merge: the merged box's identifier).
    demoted:
        Active subscriptions demoted to covered because the newcomer covers
        them pair-wise.
    result:
        The full group-subsumption result when the probabilistic checker
        ran.
    merged:
        The synthetic bounding-box subscription that joined the active set
        in the newcomer's place (merging strategies only).
    replaced:
        Active subscriptions absorbed by the merge (they moved to the
        covered pool, covered by ``merged``).
    false_volume:
        Measure of the over-approximated region the merge introduced.
    """

    subscription: Subscription
    forwarded: bool
    covered_by: Tuple[str, ...] = ()
    demoted: Tuple[Subscription, ...] = ()
    result: Optional[SubsumptionResult] = None
    merged: Optional[Subscription] = None
    replaced: Tuple[Subscription, ...] = ()
    false_volume: float = 0.0


@dataclass
class RemovalOutcome:
    """What happened when a subscription was removed from the store.

    Attributes
    ----------
    subscription:
        The removed subscription, or ``None`` when the identifier was
        unknown.
    was_active:
        Whether it was removed from the active set (``False``: it was a
        covered subscription, or unknown).
    reinsertions:
        When an active subscription leaves, the covered subscriptions that
        referenced it are re-run through :meth:`SubscriptionStore.add`;
        this records each re-insertion's :class:`StoreDecision` in order,
        which is what lets the matching engine update its cover forest and
        matcher indexes incrementally instead of rebuilding them.
    promoted:
        The re-inserted subscriptions that returned to the active set.
    retracted:
        Synthetic merged bounding boxes dropped because the departing
        subscription was their last remaining member (merging strategies
        only) — mirrored out of the matcher indexes by the engine.
    """

    subscription: Optional[Subscription]
    was_active: bool = False
    reinsertions: Tuple[StoreDecision, ...] = ()
    promoted: Tuple[Subscription, ...] = ()
    retracted: Tuple[Subscription, ...] = ()


class SubscriptionStore:
    """Active/covered subscription pools under a reduction strategy.

    Parameters
    ----------
    policy:
        Reduction-strategy name (or an already constructed
        :class:`~repro.core.policies.ReductionStrategy` instance).
    checker:
        Group-subsumption checker used by the probabilistic strategies.
    merge_budget:
        False-volume budget of the merging strategies (ignored by the
        covering-only ones).
    """

    def __init__(
        self,
        policy: CoveringPolicyName = CoveringPolicyName.GROUP,
        checker: Optional[SubsumptionChecker] = None,
        merge_budget: float = DEFAULT_MERGE_BUDGET,
    ):
        self._checker = checker or SubsumptionChecker()
        self.strategy: ReductionStrategy = make_strategy(
            policy, checker=self._checker, merge_budget=merge_budget
        )
        self.policy = self.strategy.name
        self._active: List[Subscription] = []
        self._covered: List[Subscription] = []
        #: contiguous bounds of the *active* pool — the candidate set of
        #: every reduction decision — maintained incrementally
        self.arena = SubscriptionArena()
        #: whether the arena mirrors the active pool (it opts out when a
        #: store mixes attribute counts, which only flooding allows)
        self._arena_ok = True
        #: snapshot of the active candidate set (a plain tuple in the
        #: mixed-schema degraded mode), shared by the decisions between two
        #: active-pool mutations; extended on an append, dropped otherwise
        self._selection: Optional[Sequence[Subscription]] = None
        #: identifiers of the synthetic merged bounding boxes currently
        #: stored (merging strategies only) — retracted once orphaned
        self._merged_ids: set = set()
        #: covered-subscription id -> ids of the subscriptions covering it
        self.cover_links: Dict[str, Tuple[str, ...]] = {}
        #: cumulative statistics for the experiments
        self.stats: Dict[str, float] = {
            "added": 0,
            "forwarded": 0,
            "suppressed": 0,
            "demoted": 0,
            "rspc_iterations": 0,
            "removed": 0,
            "promoted": 0,
            "merges": 0,
            "false_volume": 0.0,
        }

    @property
    def checker(self) -> SubsumptionChecker:
        """The group-subsumption checker backing the reduction strategy."""
        return self._checker

    @checker.setter
    def checker(self, value: SubsumptionChecker) -> None:
        # Keep the strategy in sync, so swapping the store's checker swaps
        # the one actually consulted.
        self._checker = value
        if hasattr(self.strategy, "checker"):
            self.strategy.checker = value

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active(self) -> Tuple[Subscription, ...]:
        """Subscriptions currently active (to be forwarded/matched first)."""
        return tuple(self._active)

    @property
    def covered(self) -> Tuple[Subscription, ...]:
        """Subscriptions declared redundant for forwarding."""
        return tuple(self._covered)

    @property
    def active_count(self) -> int:
        """Size of the active set."""
        return len(self._active)

    @property
    def total_count(self) -> int:
        """Total number of stored subscriptions."""
        return len(self._active) + len(self._covered)

    @property
    def propagated_count(self) -> int:
        """Size of the subscription set a broker would propagate upstream.

        For the covering strategies this is the historical measure of the
        comparison experiment — the cumulative count of subscriptions not
        declared covered on arrival.  Merging strategies *shrink* their
        advertised set over time, so for them the current active-set size
        (the merged advertisements) is the honest state measure.
        """
        if self.strategy.merges:
            return self.active_count
        return int(self.stats["forwarded"])

    def active_candidates(self) -> Sequence[Subscription]:
        """Snapshot of the active pool as a contiguous candidate set.

        After a pure append the snapshot is the previous one extended by
        a row (:meth:`_activate`); after any removal, demotion or merge it
        is rebuilt lazily by a single vectorised arena row gather.
        Between mutations every reduction decision — including the
        re-insertions of :meth:`remove_detailed` that end suppressed —
        shares the same snapshot, and with it the stacked bounds and the
        signed matrix.

        A store holding subscriptions that cannot share a snapshot
        (mixed schemas — possible only under flooding, which never
        inspects bounds) degrades to a plain tuple, exactly the shape
        the strategies historically received.
        """
        if self._selection is None:
            if self._arena_ok:
                try:
                    self._selection = self.arena.select(self._active)
                except ValidationError:
                    self._arena_ok = False
            if not self._arena_ok:
                self._selection = tuple(self._active)
        return self._selection

    # ------------------------------------------------------------------
    # Arena bookkeeping
    # ------------------------------------------------------------------
    def _activate(self, subscription: Subscription) -> None:
        """Record an active-pool insertion (an append) in the arena.

        When the current snapshot is still valid — nothing was removed,
        demoted or merged away since it was taken — the new one is that
        snapshot plus one row; otherwise it is re-gathered on demand.
        """
        previous, self._selection = self._selection, None
        if not self._arena_ok:
            return
        try:
            self.arena.add(subscription)
            if isinstance(previous, CandidateSet):
                self._selection = previous.extended(subscription)
        except ValidationError:
            # Mixed schemas or attribute counts (possible only under
            # flooding, which never inspects bounds) — fall back to plain
            # snapshots.
            self._arena_ok = False

    def _deactivate(self, subscription_id: str) -> None:
        """Record an active-pool removal in the arena."""
        self._selection = None
        if self._arena_ok:
            self.arena.discard(subscription_id)

    def find(self, subscription_id: str) -> Optional[Subscription]:
        """Look up a stored subscription by identifier."""
        for bucket in (self._active, self._covered):
            for subscription in bucket:
                if subscription.id == subscription_id:
                    return subscription
        return None

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> StoreDecision:
        """Insert a subscription and decide whether it must be forwarded.

        The verdict comes from the store's reduction strategy; this method
        only applies it to the pools and the cover links.
        """
        self.stats["added"] += 1
        decision = self.strategy.decide(subscription, self.active_candidates())
        self.stats["rspc_iterations"] += decision.rspc_iterations

        if decision.merged is not None:
            return self._apply_merge(decision)

        if decision.forwarded:
            demoted = (
                self._demote_covered_by(subscription)
                if self.strategy.demotes_on_forward
                else ()
            )
            self._active.append(subscription)
            self._activate(subscription)
            self.stats["forwarded"] += 1
            return StoreDecision(
                subscription,
                forwarded=True,
                demoted=demoted,
                result=decision.result,
            )

        self._covered.append(subscription)
        self.cover_links[subscription.id] = decision.covered_by
        self.stats["suppressed"] += 1
        return StoreDecision(
            subscription,
            forwarded=False,
            covered_by=decision.covered_by,
            result=decision.result,
        )

    def _apply_merge(self, decision: ReductionDecision) -> StoreDecision:
        """Swap the absorbed active subscriptions for the merged box.

        The absorbed originals (and the newcomer) move to the covered pool
        — the merged box pair-wise covers each of them, so notification
        delivery stays exact — while only the merged bounding box remains
        active (and would be propagated by an owning broker).
        """
        subscription = decision.subscription
        merged = decision.merged
        replaced_ids = set(decision.replaced)
        replaced: List[Subscription] = []
        remaining: List[Subscription] = []
        for existing in self._active:
            if existing.id in replaced_ids:
                replaced.append(existing)
                self._covered.append(existing)
                self.cover_links[existing.id] = (merged.id,)
                self._deactivate(existing.id)
            else:
                remaining.append(existing)
        self._active = remaining
        self._covered.append(subscription)
        self.cover_links[subscription.id] = (merged.id,)
        self._active.append(merged)
        self._activate(merged)
        self._merged_ids.add(merged.id)
        self.stats["suppressed"] += 1
        self.stats["merges"] += 1
        self.stats["false_volume"] += decision.false_volume
        return StoreDecision(
            subscription,
            forwarded=False,
            covered_by=(merged.id,),
            result=decision.result,
            merged=merged,
            replaced=tuple(replaced),
            false_volume=decision.false_volume,
        )

    def _demote_covered_by(
        self, newcomer: Subscription
    ) -> Tuple[Subscription, ...]:
        """Demote active subscriptions pair-wise covered by ``newcomer``.

        One vectorised containment test over the active snapshot replaces
        the per-subscription ``covers`` scan.
        """
        selection = self.active_candidates()
        if not len(selection):
            return ()
        if isinstance(selection, CandidateSet):
            covered_mask = selection.covered_rows_mask(newcomer)
            if not covered_mask.any():
                return ()
        else:  # degraded (mixed-schema) mode: the historical scalar scan
            covered_mask = [newcomer.covers(existing) for existing in self._active]
            if not any(covered_mask):
                return ()
        demoted: List[Subscription] = []
        remaining: List[Subscription] = []
        for index, existing in enumerate(self._active):
            if covered_mask[index]:
                demoted.append(existing)
                self._covered.append(existing)
                self.cover_links[existing.id] = (newcomer.id,)
                self._deactivate(existing.id)
            else:
                remaining.append(existing)
        self._active = remaining
        self.stats["demoted"] += len(demoted)
        return tuple(demoted)

    def remove(self, subscription_id: str) -> Tuple[Subscription, ...]:
        """Remove a subscription (unsubscription).

        When an *active* subscription leaves, covered subscriptions whose
        cover links referenced it are re-inserted through :meth:`add` so
        that those which are no longer covered get promoted (and would be
        forwarded by the owning broker) — the promotion mechanism described
        in Section 5.  Returns the promoted subscriptions.
        """
        return self.remove_detailed(subscription_id).promoted

    def remove_detailed(self, subscription_id: str) -> RemovalOutcome:
        """Like :meth:`remove`, but reporting the full :class:`RemovalOutcome`.

        The per-orphan re-insertion decisions let callers that mirror the
        store (the matching engine's cover forest and matcher backends)
        apply the removal incrementally instead of rebuilding from the
        pools.
        """
        removed: Optional[Subscription] = None
        for index, subscription in enumerate(self._active):
            if subscription.id == subscription_id:
                del self._active[index]
                self._deactivate(subscription_id)
                removed = subscription
                break
        if removed is None:
            for index, subscription in enumerate(self._covered):
                if subscription.id == subscription_id:
                    del self._covered[index]
                    links = self.cover_links.pop(subscription_id, ())
                    if self.strategy.merges and links:
                        self._reroute_dangling_links(subscription_id, links)
                    self.stats["removed"] += 1
                    return RemovalOutcome(
                        subscription,
                        was_active=False,
                        retracted=self._retract_orphaned_merges(links),
                    )
            return RemovalOutcome(None)

        self.stats["removed"] += 1
        # Promote covered subscriptions that referenced the departed coverer.
        orphans = [
            subscription
            for subscription in self._covered
            if subscription_id in self.cover_links.get(subscription.id, ())
        ]
        reinsertions: List[StoreDecision] = []
        promoted: List[Subscription] = []
        for orphan in orphans:
            self._covered.remove(orphan)
            self.cover_links.pop(orphan.id, None)
            decision = self.add(orphan)
            self.stats["added"] -= 1  # re-insertion is not a new arrival
            reinsertions.append(decision)
            if decision.forwarded:
                promoted.append(orphan)
                self.stats["promoted"] += 1
        return RemovalOutcome(
            removed,
            was_active=True,
            reinsertions=tuple(reinsertions),
            promoted=tuple(promoted),
        )

    def _reroute_dangling_links(
        self, departed_id: str, replacements: Sequence[str]
    ) -> None:
        """Substitute a departed coverer with its own coverers.

        Under the merging strategies a covered subscription can cover
        others (it may have been an active coverer before being absorbed
        into a merged box).  When it unsubscribes, dependents that named
        it are re-pointed at *its* coverers — transitively sound, since
        each coverer contains the departed subscription — so the merged
        box cannot be retracted while it still represents them.
        """
        for sid, links in self.cover_links.items():
            if departed_id not in links:
                continue
            self.cover_links[sid] = tuple(
                dict.fromkeys(
                    replacement
                    for link in links
                    for replacement in (
                        replacements if link == departed_id else (link,)
                    )
                )
            )

    def _retract_orphaned_merges(
        self, coverer_ids: Sequence[str]
    ) -> Tuple[Subscription, ...]:
        """Drop synthetic merged boxes whose last member just departed.

        A merged bounding box only exists to represent its members; once
        no covered subscription links to it any more it is retracted (the
        broker layer does the same per link).  A retracted box that was
        itself absorbed into a bigger merge may orphan that one in turn,
        so the check cascades.
        """
        if not self._merged_ids:
            return ()
        retracted: List[Subscription] = []
        pending = [cid for cid in coverer_ids if cid in self._merged_ids]
        while pending:
            merged_id = pending.pop()
            if merged_id not in self._merged_ids:
                continue
            if any(
                merged_id in links for links in self.cover_links.values()
            ):
                continue  # still represents someone
            for pool in (self._active, self._covered):
                for index, subscription in enumerate(pool):
                    if subscription.id == merged_id:
                        del pool[index]
                        if pool is self._active:
                            self._deactivate(merged_id)
                        self._merged_ids.discard(merged_id)
                        retracted.append(subscription)
                        links = self.cover_links.pop(merged_id, ())
                        pending.extend(
                            cid for cid in links if cid in self._merged_ids
                        )
                        break
                else:
                    continue
                break
        return tuple(retracted)

    def __len__(self) -> int:
        return self.total_count

    def __contains__(self, subscription_id: object) -> bool:
        return isinstance(subscription_id, str) and self.find(subscription_id) is not None
