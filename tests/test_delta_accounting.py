"""The error of a decision, accounted: truncation and effective δ.

A "probably covered" verdict is wrong with probability at most its
``error_bound``; when RSPC stops at its iteration cap that bound is weaker
than the requested δ (``truncated``).  Every group decision copies both
onto its :class:`~repro.core.policies.ReductionDecision` (a broker's
decision log drops the checker's result), and the network and the
in-process engine charge them to registry-only instruments
(:class:`~repro.core.policies.DeltaAccount`):

* a capped near-cover moves ``truncated_decisions`` and sets
  ``effective_delta_max`` to its ``error_bound``; an uncapped "probably
  covered" verdict moves ``probably_covered`` only; pair-wise and
  point-witness decisions move nothing;
* on a network and on an engine the instruments equal a recomputation
  from every decision taken, and no report gains a key;
* a "probably covered" result keeps the subscription and the candidate
  snapshot it was decided against, so an audit can re-decide it exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.broker import line_topology
from repro.broker.network import BrokerNetwork
from repro.core.exact import exact_group_cover
from repro.core.policies import DeltaAccount, GroupStrategy, HybridStrategy
from repro.core.results import Answer, DecisionMethod
from repro.core.rspc import RSPCOutcome, run_rspc
from repro.core.store import SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.model import Schema, Subscription
from repro.obs.instruments import InstrumentRegistry

SCHEMA = Schema.uniform_integer(2, 0, 29)

#: ``s``, the whole square
WHOLE = Subscription(SCHEMA, [0, 0], [29, 29], subscription_id="s")
#: two halves whose union covers ``s``: never a witness, a verdict of RSPC
HALVES = [
    Subscription(SCHEMA, [0, 0], [14, 29], subscription_id="left"),
    Subscription(SCHEMA, [15, 0], [29, 29], subscription_id="right"),
]
#: four arms tiling ``s`` but for the hole ``[10, 19]^2`` (ρ = 1/9)
PINWHEEL = [
    Subscription(SCHEMA, lows, highs, subscription_id=f"arm{index}")
    for index, (lows, highs) in enumerate(
        (
            ([0, 0], [19, 9]),
            ([20, 0], [29, 19]),
            ([10, 20], [29, 29]),
            ([0, 10], [9, 29]),
        )
    )
]
#: one candidate covering ``s`` on its own
BIGGER = [Subscription(SCHEMA, [0, 0], [29, 29], subscription_id="all")]

NAMES = (
    "truncated_decisions",
    "probably_covered",
    "effective_delta_sum",
    "effective_delta_max",
)


def _values(registry, prefix):
    snapshot = registry.snapshot()
    return {name: snapshot[f"{prefix}.{name}"] for name in NAMES}


def _decide(candidates, cap, strategy=GroupStrategy):
    checker = SubsumptionChecker(delta=1e-6, max_iterations=cap, rng=0)
    return strategy(checker=checker).decide(WHOLE, candidates)


@pytest.mark.parametrize("strategy", (GroupStrategy, HybridStrategy))
def test_a_capped_near_cover_moves_truncation_and_the_max(strategy):
    decision = _decide(PINWHEEL, cap=3, strategy=strategy)
    result = decision.result
    assert result.answer is Answer.PROBABLY_COVERED and result.truncated
    assert decision.probably_covered and decision.truncated
    assert decision.effective_delta == result.error_bound > 0.5
    registry = InstrumentRegistry()
    DeltaAccount(registry, "x").count([decision])
    assert _values(registry, "x") == {
        "truncated_decisions": 1,
        "probably_covered": 1,
        "effective_delta_sum": result.error_bound,
        "effective_delta_max": result.error_bound,
    }


def test_an_uncapped_probable_cover_is_counted_but_not_truncated():
    decision = _decide(HALVES, cap=10**6)
    assert decision.result.method is DecisionMethod.RSPC_EXHAUSTED
    assert decision.probably_covered and not decision.truncated
    assert 0 < decision.effective_delta <= 1e-6
    registry = InstrumentRegistry()
    DeltaAccount(registry, "x").count([decision])
    assert _values(registry, "x") == {
        "truncated_decisions": 0,
        "probably_covered": 1,
        "effective_delta_sum": decision.effective_delta,
        "effective_delta_max": decision.effective_delta,
    }


@pytest.mark.parametrize(
    "candidates, cap, method",
    (
        (BIGGER, 3, DecisionMethod.PAIRWISE_COVER),
        (PINWHEEL, 10**6, DecisionMethod.POINT_WITNESS),
        # capped below d, and a witness all the same: a definite verdict
        (PINWHEEL, 60, DecisionMethod.POINT_WITNESS),
    ),
    ids=("pairwise", "point-witness", "capped-point-witness"),
)
def test_definite_decisions_move_nothing(candidates, cap, method):
    decision = _decide(candidates, cap)
    assert decision.result.method is method
    # a witness is definite: the cap below ``d`` truncates nothing
    assert not decision.result.truncated
    assert not decision.probably_covered and not decision.truncated
    assert decision.effective_delta == 0.0
    registry = InstrumentRegistry()
    DeltaAccount(registry, "x").count([decision])
    assert _values(registry, "x") == dict.fromkeys(NAMES, 0)


def test_a_capped_witness_is_not_truncated():
    """The pinwheel's hole is found within a cap of 60, below ``d``: a
    definite verdict, so neither the result nor RSPC's own is truncated."""
    checker = SubsumptionChecker(delta=1e-6, max_iterations=60, rng=0)
    result = checker.check(WHOLE, PINWHEEL)
    assert result.method is DecisionMethod.POINT_WITNESS
    assert result.iterations_performed <= 60 < result.theoretical_iterations
    assert not result.truncated
    rspc = run_rspc(WHOLE, PINWHEEL, rho_w=1 / 9, rng=0, max_iterations=60)
    assert rspc.outcome is RSPCOutcome.WITNESS_FOUND
    assert rspc.iterations_allowed == 60 < rspc.theoretical_iterations
    assert not rspc.truncated


def _recount(decisions):
    probable = [d for d in decisions if d.probably_covered]
    return {
        "truncated_decisions": sum(d.truncated for d in probable),
        "probably_covered": len(probable),
        "effective_delta_sum": sum(d.effective_delta for d in probable),
        "effective_delta_max": max((d.effective_delta for d in probable), default=0),
    }


def _assert_recounted(values, expected):
    """Equal counts and max; the sum up to its summation order."""
    total = values.pop("effective_delta_sum")
    assert total == pytest.approx(expected.pop("effective_delta_sum"))
    assert values == expected


def _boxes(rng, count, prefix):
    lows = rng.integers(0, 20, (count, 2))
    highs = np.minimum(lows + rng.integers(4, 16, (count, 2)), 29)
    return [
        Subscription(SCHEMA, low, high, subscription_id=f"{prefix}{index}")
        for index, (low, high) in enumerate(zip(lows, highs))
    ]


def test_the_network_registry_equals_a_recount_of_every_decision():
    network = BrokerNetwork(line_topology(3), policy="group", rng=4, max_iterations=3)
    network.attach_client("c", "B1")
    network.attach_client("d", "B3")
    boxes = HALVES + [WHOLE] + PINWHEEL + _boxes(np.random.default_rng(5), 30, "r")
    for box in boxes:
        network.subscribe("c", box.replace(subscription_id=f"c{box.id}"))
    for subscription in _boxes(np.random.default_rng(6), 20, "q"):
        network.subscribe("d", subscription)
    for index in range(0, 20, 3):
        network.unsubscribe("d", f"q{index}")
    network.unsubscribe("c", "cleft")
    decisions = [d for broker in network.brokers.values() for d in broker.decisions]
    expected = _recount(decisions)
    assert expected["truncated_decisions"] >= 1
    _assert_recounted(_values(network.metrics.registry, "network"), expected)
    assert set(network.metrics.report()).isdisjoint(NAMES)


def test_the_engine_registry_counts_subscriptions_and_re_decisions():
    checker = SubsumptionChecker(delta=1e-6, max_iterations=3, rng=2)
    engine = MatchingEngine(policy="group", checker=checker)
    decisions = []
    store_decide = engine.store._decide

    def recorded(subscription):
        decision = store_decide(subscription)
        decisions.append(decision)
        return decision

    engine.store._decide = recorded
    for subscription in HALVES + PINWHEEL + [WHOLE] + _boxes(
        np.random.default_rng(7), 30, "r"
    ):
        engine.subscribe(subscription)
    before = len(decisions)
    engine.unsubscribe("left")
    assert len(decisions) > before  # what ``left`` covered was re-decided
    expected = _recount(decisions)
    assert expected["truncated_decisions"] >= 1
    _assert_recounted(_values(engine.counters.registry, "engine"), expected)
    report = engine.counters.report(engine.counters.registry.diff())
    assert set(report).isdisjoint(NAMES)


def test_a_probable_result_keeps_what_an_audit_needs():
    store = SubscriptionStore(
        "group", checker=SubsumptionChecker(delta=1e-6, max_iterations=3, rng=0)
    )
    for candidate in HALVES:
        store.add(candidate)
    snapshot = store.active_candidates()
    decision = store.add(WHOLE)
    result = decision.result
    assert result.answer is Answer.PROBABLY_COVERED
    # references, not copies: the store's immutable snapshot itself
    assert result.subscription is WHOLE and result.candidates is snapshot
    kept = [result.candidates[row] for row in result.details["mcs_kept_rows"]]
    assert exact_group_cover(result.subscription, kept)
    assert exact_group_cover(result.subscription, result.candidates)


@pytest.mark.parametrize("candidates, cap", ((BIGGER, 3), (PINWHEEL, 10**6)))
def test_a_definite_result_keeps_no_references(candidates, cap):
    result = SubsumptionChecker(delta=1e-6, max_iterations=cap, rng=0).check(
        WHOLE, candidates
    )
    assert result.answer is not Answer.PROBABLY_COVERED
    assert result.subscription is None and result.candidates is None
