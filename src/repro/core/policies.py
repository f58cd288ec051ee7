"""The pluggable subscription-reduction strategy layer.

Every place the system decides "does this subscription still have to be
propagated, given what the receiver already knows?" is a
:class:`~repro.core.store.SubscriptionStore` — the matching engine's, and
one per broker link.  The store keeps the covering state and applies
verdicts; this module makes the verdict, behind one seam:

* :class:`ReductionDecision` — the *shape* of a reduction verdict:
  forwarded, suppressed-by (with the covering dependency set), or
  replaced-by-merged (with the merged bounding box, the advertisements it
  absorbs and the false volume it introduces), plus the RSPC-iteration and
  candidate accounting the experiments need;
* :class:`ReductionStrategy` — the protocol a policy implements:
  ``decide(subscription, candidates) -> ReductionDecision``;
* a registry (:func:`register_strategy`, :func:`make_strategy`,
  :data:`STRATEGY_NAMES`) so a new reduction policy is a one-file
  addition.

Five strategies ship with the repository:

``none``
    Subscription flooding — every subscription is forwarded.
``pairwise``
    The classical deterministic baseline: suppress only when a *single*
    candidate covers the newcomer.
``group``
    The paper's probabilistic union covering (RSPC + MCS).  The
    suppression dependency set is the MCS *minimized cover set*, not the
    whole candidate set, so an unrelated candidate's departure does not
    trigger a re-check storm.
``merging``
    The related-work alternative (Crespo et al., Li et al.): when no
    single candidate covers the newcomer, merge it with the cheapest
    candidate into their bounding box, provided the merge's relative
    false volume stays within ``merge_budget``.  Routing state shrinks,
    but the merged box accepts publications nobody asked for — the false
    positives the paper's covering approach avoids.
``hybrid``
    Cover-first, merge the residue: the group check runs first (lossy
    only within its ``delta`` bound, adds no state); only an uncovered
    newcomer is considered for merging.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.merging import cheapest_merge
from repro.core.pairwise import PairwiseCoverageChecker
from repro.core.results import Answer, SubsumptionResult
from repro.core.subsumption import SubsumptionChecker
from repro.model.subscriptions import Subscription

__all__ = [
    "ReductionPolicyName",
    "ReductionDecision",
    "DeltaAccount",
    "ReductionStrategy",
    "NoneStrategy",
    "PairwiseStrategy",
    "GroupStrategy",
    "MergingStrategy",
    "HybridStrategy",
    "DEFAULT_MERGE_BUDGET",
    "STRATEGY_NAMES",
    "register_strategy",
    "make_strategy",
    "policy_value",
    "resolve_policy",
    "strategy_names",
]

#: default cap on the relative false volume (``false_volume / merged
#: size``) a single merge step may introduce
DEFAULT_MERGE_BUDGET = 0.25


class ReductionPolicyName(str, Enum):
    """Subscription-reduction policy of a store/broker/engine."""

    NONE = "none"
    PAIRWISE = "pairwise"
    GROUP = "group"
    MERGING = "merging"
    HYBRID = "hybrid"


@dataclass
class ReductionDecision:
    """Verdict of one reduction decision for one subscription.

    Exactly one of three outcomes holds:

    * **forwarded** — ``forwarded`` is ``True``: the subscription must be
      propagated as-is;
    * **suppressed** — ``forwarded`` is ``False`` and ``merged`` is
      ``None``: the candidates named in ``covered_by`` already cover the
      subscription, nothing is propagated;
    * **replaced by a merge** — ``merged`` is set: the subscription and
      the candidates named in ``replaced`` are jointly represented by the
      ``merged`` bounding box, which is what gets propagated instead.

    Attributes
    ----------
    subscription:
        The subscription the decision is about.
    forwarded:
        Whether the subscription itself must be propagated.
    covered_by:
        Identifiers of the candidates the suppression depends on: the
        single coverer under ``pairwise``, the MCS minimized cover set
        under ``group``/``hybrid``, the merged box's identifier for a
        merge.  Empty when forwarded.
    merged:
        The bounding box to advertise instead (merging strategies only).
    replaced:
        Identifiers of the candidates the merged box absorbs (their
        advertisements become redundant).
    false_volume:
        Measure of the region the merge over-approximates (0 unless a
        merge was performed).
    candidates_considered:
        Size of the candidate set the decision was taken against.
    rspc_iterations:
        Random guesses spent by the probabilistic checker (0 for the
        deterministic strategies).
    result:
        The full group-subsumption result when the probabilistic checker
        ran.
    probably_covered:
        Whether the suppression rests on a "probably covered" verdict.
    truncated:
        Whether that verdict's RSPC run stopped at the iteration cap, so
        its error bound is weaker than the requested ``delta``.
    effective_delta:
        The verdict's residual error: a "probably covered" verdict's
        ``error_bound``, 0 for a definite one.

    The last three are copied from ``result``, so they outlive it (a
    broker's decision log drops ``result``).
    """

    subscription: Subscription
    forwarded: bool
    covered_by: Tuple[str, ...] = ()
    merged: Optional[Subscription] = None
    replaced: Tuple[str, ...] = ()
    false_volume: float = 0.0
    candidates_considered: int = 0
    rspc_iterations: int = 0
    result: Optional[SubsumptionResult] = None
    probably_covered: bool = False
    truncated: bool = False
    effective_delta: float = 0.0


class DeltaAccount:
    """The registry instruments accounting the error of a decision stream.

    ``<prefix>.truncated_decisions``, ``<prefix>.probably_covered`` and
    ``<prefix>.effective_delta_sum`` are counters (the mean effective
    delta is the sum over ``probably_covered``), and
    ``<prefix>.effective_delta_max`` is a gauge of the worst one.  No
    report reads them: they are read from the registry.
    """

    def __init__(self, registry, prefix: str):
        self.truncated = registry.counter(f"{prefix}.truncated_decisions")
        self.probable = registry.counter(f"{prefix}.probably_covered")
        self.delta_sum = registry.counter(f"{prefix}.effective_delta_sum")
        self.delta_max = registry.gauge(f"{prefix}.effective_delta_max")

    def count(self, decisions: Iterable[ReductionDecision]) -> None:
        """Charge every decision's verdict."""
        for decision in decisions:
            if decision.probably_covered:
                self.truncated.value += decision.truncated
                self.probable.value += 1
                self.delta_sum.value += decision.effective_delta
                if decision.effective_delta > self.delta_max.value:
                    self.delta_max.value = decision.effective_delta


def _candidate_sequence(
    candidates: Iterable[Subscription],
) -> Sequence[Subscription]:
    """``candidates`` as a sized sequence, for a strategy's ``decide``.

    An iterator is drained into a tuple; anything with a length — a list,
    a tuple, a :class:`~repro.core.arena.CandidateSet` — is returned as it
    is.  Nothing is snapshotted here.
    """
    return candidates if hasattr(candidates, "__len__") else tuple(candidates)


class ReductionStrategy:
    """Base class/protocol of a pluggable reduction strategy.

    Subclasses implement :meth:`decide` and set two class attributes:

    ``name``
        The :class:`ReductionPolicyName` the strategy implements.
    ``merges``
        Whether the strategy may emit replaced-by-merged decisions (read
        by brokers, which then deliver locally through merged groups, and
        by the store's ``propagated_count``).
    """

    name: ReductionPolicyName
    merges: bool = False

    def decide(
        self,
        subscription: Subscription,
        candidates: Iterable[Subscription],
    ) -> ReductionDecision:
        """Decide the fate of ``subscription`` against ``candidates``.

        The one decision entry point: a store calls it once per decision,
        with nothing in front of it.  ``candidates`` may be any iterable
        (see :func:`_candidate_sequence`).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class NoneStrategy(ReductionStrategy):
    """Subscription flooding: always forward."""

    name = ReductionPolicyName.NONE

    def decide(
        self,
        subscription: Subscription,
        candidates: Iterable[Subscription],
    ) -> ReductionDecision:
        return ReductionDecision(
            subscription,
            forwarded=True,
            candidates_considered=len(_candidate_sequence(candidates)),
        )


class PairwiseStrategy(ReductionStrategy):
    """Classical single-subscription covering."""

    name = ReductionPolicyName.PAIRWISE

    def decide(
        self,
        subscription: Subscription,
        candidates: Iterable[Subscription],
    ) -> ReductionDecision:
        candidates = _candidate_sequence(candidates)
        check = PairwiseCoverageChecker.check(subscription, candidates)
        if check.covered:
            return ReductionDecision(
                subscription,
                forwarded=False,
                covered_by=(check.covering.id,),
                candidates_considered=len(candidates),
            )
        return ReductionDecision(
            subscription,
            forwarded=True,
            candidates_considered=len(candidates),
        )


class GroupStrategy(ReductionStrategy):
    """The paper's probabilistic union covering (RSPC + MCS).

    The suppression dependency set is kept minimal: for a pair-wise fast
    decision it is the single coverer, and for a probabilistic group
    verdict it is the MCS minimized cover set — the candidates that are
    actually essential to the cover — rather than the whole candidate
    set, so the departure of an inessential candidate cannot trigger a
    re-check.
    """

    name = ReductionPolicyName.GROUP

    def __init__(self, checker: Optional[SubsumptionChecker] = None):
        self.checker = checker or SubsumptionChecker()

    def decide(
        self,
        subscription: Subscription,
        candidates: Iterable[Subscription],
    ) -> ReductionDecision:
        candidates = _candidate_sequence(candidates)
        result = self.checker.check(subscription, candidates)
        if not result.covered:
            return ReductionDecision(
                subscription,
                forwarded=True,
                candidates_considered=len(candidates),
                rspc_iterations=result.iterations_performed,
                result=result,
            )
        return _suppressed(subscription, result, candidates)


def _suppressed(
    subscription: Subscription,
    result: SubsumptionResult,
    candidates: Sequence[Subscription],
) -> ReductionDecision:
    """The decision of a covered verdict, carrying its error accounting."""
    return ReductionDecision(
        subscription,
        forwarded=False,
        covered_by=cover_dependencies(result, candidates),
        candidates_considered=len(candidates),
        rspc_iterations=result.iterations_performed,
        result=result,
        probably_covered=result.answer is Answer.PROBABLY_COVERED,
        truncated=result.truncated,
        effective_delta=result.error_bound,
    )


def cover_dependencies(
    result: SubsumptionResult, candidates: Sequence[Subscription]
) -> Tuple[str, ...]:
    """The minimal dependency set justifying a covered verdict.

    Pair-wise fast decisions depend on the single covering candidate;
    probabilistic verdicts depend on the MCS minimized cover set the RSPC
    run was actually performed against.  Checkers configured without MCS
    fall back to the full candidate set.
    """
    if result.covering_row is not None:
        return (candidates[result.covering_row].id,)
    kept_rows = result.details.get("mcs_kept_rows")
    if kept_rows:
        return tuple(candidates[row].id for row in kept_rows)
    return tuple(candidate.id for candidate in candidates)


class MergingStrategy(ReductionStrategy):
    """Greedy bounding-box merging under a false-volume budget.

    A newcomer covered outright by a single candidate is suppressed (the
    zero-cost degenerate merge).  Otherwise the cheapest merge partner is
    sought: the candidate whose bounding box with the newcomer introduces
    the smallest relative false volume, ties broken toward the smaller
    merged box.  Within ``merge_budget`` the pair is *replaced* by the
    merged box; beyond it the newcomer is forwarded unmerged.
    """

    name = ReductionPolicyName.MERGING
    merges = True

    def __init__(self, merge_budget: float = DEFAULT_MERGE_BUDGET):
        if merge_budget < 0:
            raise ValueError("merge_budget must be non-negative")
        self.merge_budget = merge_budget

    def decide(
        self,
        subscription: Subscription,
        candidates: Iterable[Subscription],
    ) -> ReductionDecision:
        candidates = _candidate_sequence(candidates)
        check = PairwiseCoverageChecker.check(subscription, candidates)
        if check.covered:
            return ReductionDecision(
                subscription,
                forwarded=False,
                covered_by=(check.covering.id,),
                candidates_considered=len(candidates),
            )
        return self._merge_or_forward(subscription, candidates)

    def _merge_or_forward(
        self,
        subscription: Subscription,
        candidates: Sequence[Subscription],
    ) -> ReductionDecision:
        """Find the cheapest in-budget merge partner, else forward."""
        found = cheapest_merge(subscription, candidates, self.merge_budget)
        if found is None:
            return ReductionDecision(
                subscription,
                forwarded=True,
                candidates_considered=len(candidates),
            )
        partner_index, outcome = found
        partner = candidates[partner_index]
        return ReductionDecision(
            subscription,
            forwarded=False,
            covered_by=(outcome.merged.id,),
            merged=outcome.merged,
            replaced=(partner.id,),
            false_volume=outcome.false_volume,
            candidates_considered=len(candidates),
        )


class HybridStrategy(MergingStrategy):
    """Cover-first, merge the residue.

    The probabilistic group check runs first — it adds no state and loses
    at most a ``delta``-bounded fraction of notifications.  Only a
    subscription the group check could not cover is considered for a
    (state-shrinking but imprecision-adding) merge.
    """

    name = ReductionPolicyName.HYBRID
    merges = True

    def __init__(
        self,
        checker: Optional[SubsumptionChecker] = None,
        merge_budget: float = DEFAULT_MERGE_BUDGET,
    ):
        super().__init__(merge_budget=merge_budget)
        self.checker = checker or SubsumptionChecker()

    def decide(
        self,
        subscription: Subscription,
        candidates: Iterable[Subscription],
    ) -> ReductionDecision:
        candidates = _candidate_sequence(candidates)
        result = self.checker.check(subscription, candidates)
        if result.covered:
            return _suppressed(subscription, result, candidates)
        decision = self._merge_or_forward(subscription, candidates)
        decision.rspc_iterations = result.iterations_performed
        decision.result = result
        return decision


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: name -> factory; factories accept the uniform keyword set
#: ``(checker, merge_budget)`` and ignore what they do not need
_STRATEGY_FACTORIES: Dict[str, Callable[..., ReductionStrategy]] = {}


def register_strategy(
    name: Union[str, ReductionPolicyName],
) -> Callable[[Callable[..., ReductionStrategy]], Callable[..., ReductionStrategy]]:
    """Register a strategy factory under ``name`` (decorator).

    The factory is called as ``factory(checker=..., merge_budget=...)``;
    it may ignore either keyword.  Registering an existing name replaces
    the factory, so tests/projects can override a built-in.
    """
    key = str(getattr(name, "value", name))

    def _decorate(
        factory: Callable[..., ReductionStrategy]
    ) -> Callable[..., ReductionStrategy]:
        _STRATEGY_FACTORIES[key] = factory
        return factory

    return _decorate


@register_strategy(ReductionPolicyName.NONE)
def _make_none(checker=None, merge_budget=DEFAULT_MERGE_BUDGET):
    return NoneStrategy()


@register_strategy(ReductionPolicyName.PAIRWISE)
def _make_pairwise(checker=None, merge_budget=DEFAULT_MERGE_BUDGET):
    return PairwiseStrategy()


@register_strategy(ReductionPolicyName.GROUP)
def _make_group(checker=None, merge_budget=DEFAULT_MERGE_BUDGET):
    return GroupStrategy(checker=checker)


@register_strategy(ReductionPolicyName.MERGING)
def _make_merging(checker=None, merge_budget=DEFAULT_MERGE_BUDGET):
    return MergingStrategy(merge_budget=merge_budget)


@register_strategy(ReductionPolicyName.HYBRID)
def _make_hybrid(checker=None, merge_budget=DEFAULT_MERGE_BUDGET):
    return HybridStrategy(checker=checker, merge_budget=merge_budget)


#: the built-in strategy names, in canonical (CLI) order
STRATEGY_NAMES = tuple(_STRATEGY_FACTORIES)


def strategy_names() -> Tuple[str, ...]:
    """Every registered strategy name (built-ins first, then additions)."""
    return tuple(_STRATEGY_FACTORIES)


def policy_value(policy: Union[str, ReductionPolicyName, ReductionStrategy]) -> str:
    """The plain string name of a policy reference."""
    if isinstance(policy, ReductionStrategy):
        policy = policy.name
    value = getattr(policy, "value", None)
    return str(policy) if value is None else str(value)


def resolve_policy(
    policy: Union[str, ReductionPolicyName, ReductionStrategy],
) -> Union[str, ReductionPolicyName]:
    """Validate a policy reference for storage on specs/networks.

    Built-in names come back as :class:`ReductionPolicyName` members
    (their historical representation, so equality against the enum keeps
    working); any other *registered* strategy name comes back as the
    plain string, which is what lets a strategy added through
    :func:`register_strategy` flow through broker networks, scenario
    specs and the CLI by name.  Unregistered names raise ``ValueError``.
    """
    key = policy_value(policy)
    if key not in _STRATEGY_FACTORIES:
        raise ValueError(
            f"unknown reduction strategy {key!r}; expected one of "
            f"{strategy_names()}"
        )
    try:
        return ReductionPolicyName(key)
    except ValueError:
        return key


def make_strategy(
    policy: Union[str, ReductionPolicyName, ReductionStrategy],
    checker: Optional[SubsumptionChecker] = None,
    merge_budget: float = DEFAULT_MERGE_BUDGET,
) -> ReductionStrategy:
    """Instantiate the reduction strategy for ``policy``.

    ``policy`` may be a registered name, a :class:`ReductionPolicyName`,
    or an already constructed :class:`ReductionStrategy` (returned as-is,
    so callers can inject custom instances).
    """
    if isinstance(policy, ReductionStrategy):
        return policy
    key = str(getattr(policy, "value", policy))
    factory = _STRATEGY_FACTORIES.get(key)
    if factory is None:
        raise ValueError(
            f"unknown reduction strategy {key!r}; expected one of "
            f"{strategy_names()}"
        )
    return factory(checker=checker, merge_budget=merge_budget)
