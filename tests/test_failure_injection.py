"""Failure-injection tests.

The probabilistic algorithm's only failure mode is declaring a
non-covered subscription covered, which in a distributed deployment means
the subscription is not forwarded and matching publications published
elsewhere are lost.  These tests *force* that failure (with a checker stub
that always answers "covered") and verify that

* the simulator's global oracle detects and counts the lost notifications,
* the loss is confined to publications entering the network beyond the
  broker that made the wrong decision, and
* with a sound checker the same workload loses nothing.

A second group injects malformed inputs into the public API and checks the
error behaviour is deliberate (exceptions, not silent corruption).
"""

import numpy as np
import pytest

from repro.broker import BrokerNetwork, CoveringPolicy, line_topology
from repro.core.results import Answer, DecisionMethod, SubsumptionResult
from repro.core.store import CoveringPolicyName, SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.model import Publication, Schema, Subscription
from repro.model.errors import ValidationError


class AlwaysCoveredChecker(SubsumptionChecker):
    """A deliberately broken checker: every subscription is 'covered'."""

    def check(self, subscription, candidates):  # noqa: D102 - see class docstring
        candidates = list(candidates)
        if not candidates:
            return super().check(subscription, candidates)
        return SubsumptionResult(
            answer=Answer.PROBABLY_COVERED,
            method=DecisionMethod.RSPC_EXHAUSTED,
            original_set_size=len(candidates),
            reduced_set_size=len(candidates),
            rho_w=0.0,
            theoretical_iterations=0.0,
            iterations_performed=0,
            error_bound=1.0,
        )


@pytest.fixture
def schema():
    return Schema.uniform_integer(2, 0, 100)


def box(schema, x1, x2, sid=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid
    )


class TestInjectedCoveringErrors:
    def _network(self, checker_factory, schema):
        network = BrokerNetwork(
            line_topology(4), policy=CoveringPolicy.GROUP, rng=0
        )
        # Replace every broker's checker with the injected one.
        for broker in network.brokers.values():
            broker.checker = checker_factory()
        network.attach_client("subscriber", "B1")
        network.attach_client("publisher", "B4")
        return network

    def test_lost_notifications_are_detected(self, schema):
        network = self._network(AlwaysCoveredChecker, schema)
        # The first subscription reaches everyone (empty candidate sets are
        # never 'covered'); the second is erroneously suppressed although it
        # is NOT covered by the first.
        network.subscribe("subscriber", box(schema, (0, 20), (0, 20), sid="first"))
        network.subscribe("subscriber", box(schema, (50, 70), (50, 70), sid="second"))
        assert network.metrics.suppressed_subscriptions > 0

        # A matching publication enters at the far end of the chain: the
        # reverse path for "second" was never built, so it cannot reach B1.
        network.publish(
            "publisher",
            Publication.from_values(schema, {"x1": 60, "x2": 60}, publication_id="p"),
        )
        assert network.metrics.expected_notifications == 1
        assert network.metrics.notifications == 0
        assert network.metrics.missed_notifications == 1
        assert network.metrics.report()["delivery_ratio"] == 0.0
        assert len(network.metrics.missed) == 1
        assert network.metrics.missed[0].subscription_id == "second"

    def test_loss_is_local_to_the_pruned_direction(self, schema):
        network = self._network(AlwaysCoveredChecker, schema)
        network.subscribe("subscriber", box(schema, (0, 20), (0, 20), sid="first"))
        network.subscribe("subscriber", box(schema, (50, 70), (50, 70), sid="second"))
        # A publication issued at the subscriber's own broker is still
        # delivered: the erroneous decision only pruned the *propagation*.
        network.attach_client("local-publisher", "B1")
        network.publish(
            "local-publisher",
            Publication.from_values(schema, {"x1": 60, "x2": 60}),
        )
        assert network.metrics.notifications == 1
        assert network.metrics.missed_notifications == 0

    def test_sound_checker_loses_nothing(self, schema):
        network = self._network(
            lambda: SubsumptionChecker(delta=1e-9, max_iterations=2000, rng=1), schema
        )
        network.subscribe("subscriber", box(schema, (0, 20), (0, 20), sid="first"))
        network.subscribe("subscriber", box(schema, (50, 70), (50, 70), sid="second"))
        network.publish(
            "publisher",
            Publication.from_values(schema, {"x1": 60, "x2": 60}),
        )
        assert network.metrics.missed_notifications == 0
        assert network.metrics.report()["delivery_ratio"] == 1.0


class TestInjectedStoreErrors:
    def test_store_with_broken_checker_still_matches_locally(self, schema):
        """Even when every subscription is wrongly 'covered', local matching
        through Algorithm 5's covered-set fallback can still notify, as long
        as some active subscription matches."""
        store = SubscriptionStore(
            policy=CoveringPolicyName.GROUP, checker=AlwaysCoveredChecker()
        )
        store.add(box(schema, (0, 90), (0, 90), sid="broad"))
        store.add(box(schema, (10, 20), (10, 20), sid="narrow"))
        assert len(store.active_pool) == 1  # "narrow" was suppressed
        assert store.total_count == 2


class TestMalformedInputs:
    def test_publication_against_wrong_schema(self, schema):
        other = Schema.uniform_integer(3, 0, 10, name="other")
        subscription = Subscription.whole_space(schema)
        publication = Publication(other, [1, 1, 1])
        with pytest.raises(ValidationError):
            subscription.matches(publication)

    def test_checker_rejects_cross_schema_candidates(self, schema):
        other = Schema.uniform_integer(2, 0, 10, name="other")
        checker = SubsumptionChecker(rng=0)
        with pytest.raises(ValidationError):
            checker.check(
                Subscription.whole_space(schema),
                [Subscription.whole_space(other)],
            )

    def test_network_rejects_publishing_for_unknown_client(self, schema):
        network = BrokerNetwork(line_topology(2), policy=CoveringPolicy.NONE)
        with pytest.raises(KeyError):
            network.publish(
                "nobody", Publication.from_values(schema, {"x1": 1, "x2": 1})
            )
