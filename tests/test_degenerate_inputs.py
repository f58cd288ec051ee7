"""Degenerate-input guards: empty bursts and empty candidate snapshots.

Loops naturally produce empty inputs (a publish phase of zero events, a
freshly-started broker with no routing state).  Those calls must be
cheap no-ops: no oracle round-trip, no kernel events, no checker work
past its ``k == 0`` return and no random draws.
"""

from __future__ import annotations

import pytest

from repro.broker import grid_topology
from repro.broker.network import BrokerNetwork
from repro.core.arena import CandidateSet
from repro.core.policies import make_strategy, strategy_names
from repro.core.subsumption import SubsumptionChecker
from repro.model import Schema, Subscription

POLICIES = ("none", "pairwise", "group", "merging", "hybrid")

SEED = 7


def _schema() -> Schema:
    return Schema.uniform_integer(3, 0, 1_000)


def _subjects(schema: Schema, count: int = 6):
    return [
        Subscription.from_constraints(
            schema,
            {"x1": (i * 10, i * 10 + 50), "x2": (0, 500)},
            subscription_id=f"subj-{i}",
        )
        for i in range(count)
    ]


class TestPublishManyEmpty:
    def _network(self) -> BrokerNetwork:
        network = BrokerNetwork(grid_topology(2, 2), policy="pairwise")
        network.attach_client("client", "B1")
        return network

    def test_returns_empty_list(self):
        network = self._network()
        assert network.publish_many([]) == []

    def test_no_oracle_call_and_no_kernel_events(self):
        network = self._network()

        def exploding_match_batch(publications):
            raise AssertionError("oracle consulted for an empty burst")

        network._oracle.match_batch = exploding_match_batch
        scheduled_before = network.kernel.scheduled
        clock_before = network.kernel.now
        metrics_before = (
            network.metrics.publication_messages,
            network.metrics.notifications,
        )
        assert network.publish_many([]) == []
        assert network.kernel.scheduled == scheduled_before
        assert network.kernel.now == clock_before
        assert network.kernel.pending == 0
        assert (
            network.metrics.publication_messages,
            network.metrics.notifications,
        ) == metrics_before


class TestDecideEmptySnapshot:
    """``decide`` against zero candidates: forwarded, checker untouched."""

    @staticmethod
    def _strategy(policy: str, checker=None):
        return make_strategy(
            policy,
            checker=checker
            or SubsumptionChecker(delta=1e-3, max_iterations=64, rng=SEED),
        )

    def test_all_policies_covered(self):
        assert set(POLICIES) == set(strategy_names())

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("snapshot", ("list", "candidate-set"))
    def test_no_checker_calls(self, policy, snapshot):
        """The checker returns at ``k == 0`` before building any table."""

        class ExplodingChecker(SubsumptionChecker):
            @staticmethod
            def _build_table(*args, **kwargs):
                raise AssertionError("checker went past its k == 0 return")

        strategy = self._strategy(
            policy,
            checker=ExplodingChecker(delta=1e-3, max_iterations=64, rng=SEED),
        )
        for subject in _subjects(_schema()):
            candidates = [] if snapshot == "list" else CandidateSet([])
            decision = strategy.decide(subject, candidates)
            assert decision.forwarded
            assert decision.candidates_considered == 0
            assert decision.rspc_iterations == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_shapes_decide_field_for_field(self, policy):
        """An empty list, tuple, iterator and snapshot decide alike."""
        shapes = (list, tuple, iter, CandidateSet)
        for subject in _subjects(_schema()):
            decided = []
            for shape in shapes:
                decision = self._strategy(policy).decide(subject, shape([]))
                result = decision.result
                decided.append(
                    (
                        decision.subscription.id,
                        decision.forwarded,
                        decision.covered_by,
                        decision.replaced,
                        decision.merged,
                        decision.false_volume,
                        decision.candidates_considered,
                        decision.rspc_iterations,
                        None
                        if result is None
                        else (
                            result.answer,
                            result.method,
                            result.iterations_performed,
                        ),
                    )
                )
            assert decided == decided[:1] * len(shapes)
            assert decided[0][1] is True

    @pytest.mark.parametrize("policy", POLICIES)
    def test_randomness_not_consumed(self, policy):
        """Decisions against an empty set must not advance the RSPC stream."""
        schema = _schema()
        subjects = _subjects(schema)
        probe = Subscription.from_constraints(
            schema, {"x1": (0, 100)}, subscription_id="probe"
        )
        candidates = [
            Subscription.from_constraints(
                schema, {"x1": (0, 60)}, subscription_id=f"c{i}"
            )
            for i in range(3)
        ]
        reference = self._strategy(policy)
        exercised = self._strategy(policy)
        for subject in subjects:
            exercised.decide(subject, [])
        after_empty = exercised.decide(probe, candidates)
        baseline = reference.decide(probe, candidates)
        assert after_empty.forwarded == baseline.forwarded
        assert after_empty.rspc_iterations == baseline.rspc_iterations
