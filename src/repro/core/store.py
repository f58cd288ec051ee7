"""The covering-state machine: one subscription set under a reduction strategy.

Every place the system decides "does this subscription still have to be
propagated, given what the receiver already knows?" keeps its state in a
:class:`SubscriptionStore`: a matching engine holds one over its
subscriptions, and a broker holds one per neighbour (the link's
advertisements).  The store answers three questions:

* **What is advertised?**  The *active* pool — subscriptions forwarded as
  they are, and merged bounding boxes.  It is the candidate set of every
  decision.
* **What is withheld, and on whose account?**  A suppressed subscription
  is *withheld* on account of the advertisements named in
  :attr:`~SubscriptionStore.cover_links` (the single coverer under
  ``pairwise``, the MCS minimized cover set under ``group``).
* **What does a merged box stand for?**  Its *members*
  (:attr:`~SubscriptionStore.members`): the subscriptions it replaced.

Withheld entries and members together form the *covered* pool — stored,
matched behind the Algorithm 5 gate, but not advertised.  Each pool is a
:class:`~repro.core.arena.Matcher` (:attr:`~SubscriptionStore.active_pool`,
:attr:`~SubscriptionStore.covered_pool`): insertion order is pool order,
the active pool's live columns are what every decision's snapshot copies,
and the matching engine matches publications against the two pools
directly, so each pool's bounds are held once.  The rules:

* A decision comes from the pluggable
  :class:`~repro.core.policies.ReductionStrategy` against the active pool;
  a forwarded subscription is advertised, a suppressed one withheld, and
  a merge advertises the box in place of the replaced advertisements.  A
  replaced original becomes a member; a replaced box is dropped and its
  members move to the new box.  Withheld entries that named a replaced
  advertisement are re-pointed at the new box.
* A newcomer never demotes what is already advertised: a broker link
  could not un-advertise it without extra retractions.
* When an advertised subscription leaves, the entries withheld on it are
  re-decided, in the order they were withheld.  When a member leaves its
  box shrinks; with its last member the box is retracted and the entries
  withheld on it are re-decided.  A withheld entry leaves quietly.
* A store holds one schema and each subscription identifier once; a
  subscription of another schema, or with the identifier of a stored
  subscription, is rejected before any state changes.  (A merged box's
  name is not reserved: see :meth:`SubscriptionStore.add`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.arena import CandidateSet, Matcher
from repro.core.policies import (
    DEFAULT_MERGE_BUDGET,
    ReductionDecision,
    ReductionPolicyName,
    ReductionStrategy,
    make_strategy,
)
from repro.core.subsumption import SubsumptionChecker
from repro.model.errors import ValidationError
from repro.model.schema import Schema
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

#: what :meth:`SubscriptionStore.add` reports: the strategy's verdict, which
#: the store applied as it is (``replaced`` holds advertisement ids)
StoreDecision = ReductionDecision


@dataclass
class RemovalOutcome:
    """What happened when a subscription was removed from the store.

    Attributes
    ----------
    subscription:
        The removed subscription, or ``None`` when the identifier was
        unknown.
    was_active:
        Whether it was advertised (``False``: it was withheld, a member
        of a merged box, or unknown).
    reinsertions:
        The re-decisions of the entries that were withheld on the departed
        advertisement (or on the retracted box), in order — what lets the
        owner mirror the removal incrementally.
    retracted:
        The merged box retracted because its last member left.
    """

    subscription: Optional[Subscription]
    was_active: bool = False
    reinsertions: Tuple[StoreDecision, ...] = ()
    retracted: Tuple[Subscription, ...] = ()

    @property
    def promoted(self) -> Tuple[Subscription, ...]:
        """The re-decided subscriptions that are advertised now."""
        return tuple(d.subscription for d in self.reinsertions if d.forwarded)


class SubscriptionStore:
    """Advertised, withheld and merged-member state under one strategy.

    Parameters
    ----------
    policy:
        Reduction-strategy name, or an already constructed
        :class:`~repro.core.policies.ReductionStrategy` instance (which
        several stores may share — a broker's links do).
    checker:
        Group-subsumption checker for a strategy built here by name.
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
        self.strategy: ReductionStrategy = make_strategy(
            policy, checker=checker, merge_budget=merge_budget
        )
        self.policy = self.strategy.name
        #: the schema of the first subscription added, fixed from then on
        self.schema: Optional[Schema] = None
        #: advertised subscriptions and merged boxes, in advertisement order
        self.active_pool = Matcher()
        #: stored subscriptions that are not advertised (withheld or members)
        self.covered_pool = Matcher()
        #: withheld id -> ids of the advertisements it is withheld on
        self.cover_links: Dict[str, Tuple[str, ...]] = {}
        #: merged box id -> ids of the subscriptions the box stands for
        self.members: Dict[str, Set[str]] = {}
        #: snapshot of the active pool shared by the decisions between two
        #: active-pool mutations; extended on an append, dropped otherwise
        self._selection: Optional[CandidateSet] = None
        #: cumulative statistics for the experiments
        self.stats: Dict[str, float] = {
            "added": 0,
            "forwarded": 0,
            "suppressed": 0,
            "rspc_iterations": 0,
            "removed": 0,
            "promoted": 0,
            "merges": 0,
            "false_volume": 0.0,
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def active(self) -> Tuple[Subscription, ...]:
        """Advertised subscriptions and merged boxes, in order."""
        return tuple(self.active_pool)

    @property
    def covered(self) -> Tuple[Subscription, ...]:
        """Stored subscriptions that are not advertised, in order."""
        return tuple(self.covered_pool)

    @property
    def total_count(self) -> int:
        """Total number of stored subscriptions (merged boxes included)."""
        return len(self.active_pool) + len(self.covered_pool)

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
            return len(self.active_pool)
        return int(self.stats["forwarded"])

    def active_candidates(self) -> CandidateSet:
        """Snapshot of the active pool as a contiguous candidate set.

        After a pure append the snapshot is the previous one extended by
        a column (:meth:`_advertise`); after any removal or merge it is
        rebuilt lazily as a copy of the active matcher's live columns
        (:meth:`Matcher.candidates <repro.core.arena.Matcher.candidates>`).
        Between mutations every decision — re-decisions that end withheld
        included — shares the same snapshot, and with it the raw and the
        snapped signed matrix.
        """
        if self._selection is None:
            self._selection = self.active_pool.candidates()
        return self._selection

    def __contains__(self, subscription_id: object) -> bool:
        return (
            subscription_id in self.active_pool or subscription_id in self.covered_pool
        )

    # ------------------------------------------------------------------
    # The active pool
    # ------------------------------------------------------------------
    def _advertise(self, subscription: Subscription) -> None:
        """Append to the active pool, extending a still-valid snapshot."""
        self.active_pool.add(subscription)
        previous, self._selection = self._selection, None
        if previous is not None:
            self._selection = previous.extended(subscription)

    def _retract(self, subscription_id: str) -> Subscription:
        """Drop an advertisement from the active pool."""
        self._selection = None
        return self.active_pool.remove(subscription_id)

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> StoreDecision:
        """Insert a subscription and decide whether it must be forwarded.

        Raises :class:`ValueError` for the identifier of a subscription
        the store already holds and
        :class:`~repro.model.errors.ValidationError` for a subscription of
        another schema than the store's, both before any state changes.
        A merged box is named after its members, so a broker link can
        receive another broker's box under the name of one of its own;
        that one is decided like any other subscription.
        """
        if subscription.id in self and subscription.id not in self.members:
            raise ValueError(
                f"subscription {subscription.id!r} is already registered"
            )
        schema = subscription.schema
        if self.schema is None:
            self.schema = schema
        elif schema is not self.schema and schema != self.schema:
            raise ValidationError("subscription schema does not match the store's")
        self.stats["added"] += 1
        return self._decide(subscription)

    def _decide(self, subscription: Subscription) -> StoreDecision:
        """Ask the strategy about ``subscription`` and apply its verdict."""
        decision = self.strategy.decide(subscription, self.active_candidates())
        self.stats["rspc_iterations"] += decision.rspc_iterations
        if decision.merged is not None:
            self._merge(decision)
        elif decision.forwarded:
            self._advertise(subscription)
            self.stats["forwarded"] += 1
        else:
            self.covered_pool.add(subscription)
            self.cover_links[subscription.id] = decision.covered_by
            self.stats["suppressed"] += 1
        return decision

    def _merge(self, decision: ReductionDecision) -> None:
        """Advertise the merged box in place of the replaced advertisements."""
        box = decision.merged
        members = {decision.subscription.id}
        for replaced_id in decision.replaced:
            original = self._retract(replaced_id)
            absorbed = self.members.pop(replaced_id, None)
            if absorbed is None:  # an original becomes a member
                self.covered_pool.add(original)
                members.add(replaced_id)
            else:  # a box is dropped; its members move to the new one
                members |= absorbed
        self.covered_pool.add(decision.subscription)
        self._advertise(box)
        self.members[box.id] = members
        replaced = set(decision.replaced)
        for sid, links in self.cover_links.items():
            if not replaced.isdisjoint(links):
                self.cover_links[sid] = tuple(
                    dict.fromkeys(box.id if id_ in replaced else id_ for id_ in links)
                )
        self.stats["suppressed"] += 1
        self.stats["merges"] += 1
        self.stats["false_volume"] += decision.false_volume

    def remove(self, subscription_id: str) -> Tuple[Subscription, ...]:
        """Remove a subscription (unsubscription); returns the promoted ones.

        The entries withheld on a departing advertisement are re-decided,
        and those no longer covered are advertised — the promotion
        mechanism described in Section 5.
        """
        return self.remove_detailed(subscription_id).promoted

    def remove_detailed(self, subscription_id: str) -> RemovalOutcome:
        """Like :meth:`remove`, but reporting the full :class:`RemovalOutcome`."""
        if subscription_id in self.active_pool:
            removed = self._retract(subscription_id)
            self.stats["removed"] += 1
            return RemovalOutcome(
                removed, was_active=True, reinsertions=self._redecide(subscription_id)
            )
        removed = self.covered_pool.remove(subscription_id)
        if removed is None:
            return RemovalOutcome(None)
        self.stats["removed"] += 1
        if self.cover_links.pop(subscription_id, None) is not None:
            return RemovalOutcome(removed)
        box_id = next(
            box_id
            for box_id, members in self.members.items()
            if subscription_id in members
        )
        members = self.members[box_id]
        members.discard(subscription_id)
        if members:
            return RemovalOutcome(removed)
        del self.members[box_id]
        return RemovalOutcome(
            removed,
            retracted=(self._retract(box_id),),
            reinsertions=self._redecide(box_id),
        )

    def _redecide(self, departed_id: str) -> Tuple[StoreDecision, ...]:
        """Re-decide, in order, the entries withheld on ``departed_id``."""
        dependents = [
            sid for sid, links in self.cover_links.items() if departed_id in links
        ]
        decisions = []
        for sid in dependents:
            del self.cover_links[sid]
            decision = self._decide(self.covered_pool.remove(sid))
            self.stats["promoted"] += decision.forwarded
            decisions.append(decision)
        return tuple(decisions)
