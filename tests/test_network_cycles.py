"""Broker-overlay tests on cyclic topologies and larger end-to-end runs.

Reverse-path forwarding is usually described on trees (Figure 1); these
tests exercise the simulator on topologies with cycles (meshes) and larger
random workloads, checking that

* subscription flooding terminates and reaches every broker exactly once,
* publications are never delivered twice to the same subscriber,
* the covering policies keep the delivery behaviour of flooding (pair-wise
  exactly, group up to the delta-bounded loss),
* traffic ordering flooding ≥ pair-wise ≥ group also holds on meshes.
"""

import numpy as np
import pytest

from repro.broker import BrokerNetwork, CoveringPolicy, grid_topology
from repro.model import Publication, Schema, Subscription
from repro.workloads.generators import publication_inside, random_subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(3, 0, 1_000)


class TestCyclicTopology:
    def test_subscription_reaches_every_broker_once(self, schema):
        network = BrokerNetwork(grid_topology(3, 3), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        network.subscribe(
            "sub", Subscription.from_constraints(schema, {"x1": (0, 100)})
        )
        # Every broker stores the subscription exactly once despite cycles.
        assert all(size == 1 for size in network.routing_table_sizes().values())

    def test_publication_delivered_exactly_once(self, schema):
        network = BrokerNetwork(grid_topology(3, 3), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B9")
        subscription = Subscription.from_constraints(schema, {"x1": (0, 100)})
        network.subscribe("sub", subscription)
        delivered = network.publish(
            "pub",
            Publication.from_values(schema, {"x1": 50, "x2": 0, "x3": 0}),
        )
        assert len(delivered) == 1
        assert network.metrics.notifications == 1
        assert network.metrics.missed_notifications == 0

    def test_non_matching_publication_not_delivered(self, schema):
        network = BrokerNetwork(grid_topology(2, 3), policy=CoveringPolicy.NONE)
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B6")
        network.subscribe(
            "sub", Subscription.from_constraints(schema, {"x1": (0, 100)})
        )
        delivered = network.publish(
            "pub",
            Publication.from_values(schema, {"x1": 900, "x2": 0, "x3": 0}),
        )
        assert delivered == []
        assert network.metrics.expected_notifications == 0


class TestEndToEndPolicies:
    @pytest.mark.parametrize("policy", [CoveringPolicy.PAIRWISE, CoveringPolicy.GROUP])
    def test_mesh_workload_delivery(self, schema, policy):
        """Random workload on a 3x3 mesh: covering policies lose (almost)
        nothing and never exceed flooding traffic."""
        rng = np.random.default_rng(7)
        flooding = BrokerNetwork(grid_topology(3, 3), policy=CoveringPolicy.NONE, rng=1)
        covered = BrokerNetwork(grid_topology(3, 3), policy=policy, rng=1, delta=1e-9)
        broker_ids = flooding.broker_ids

        subscriptions = []
        for index in range(25):
            client = f"client-{index}"
            broker = broker_ids[index % len(broker_ids)]
            flooding.attach_client(client, broker)
            covered.attach_client(client, broker)
            subscription = random_subscription(
                schema, rng, width_fraction=(0.2, 0.6)
            ).replace(subscriber=client)
            subscriptions.append(subscription)
            flooding.subscribe(client, subscription.replace(subscription_id=f"f-{index}"))
            covered.subscribe(client, subscription.replace(subscription_id=f"c-{index}"))

        publisher = "publisher"
        flooding.attach_client(publisher, broker_ids[0])
        covered.attach_client(publisher, broker_ids[0])
        for index in range(40):
            if index % 2 == 0:
                publication = publication_inside(
                    subscriptions[index % len(subscriptions)], rng
                )
            else:
                values = [
                    schema.domain(j).sample(schema.domain(j).full_interval(), rng)
                    for j in range(schema.m)
                ]
                publication = Publication(schema, values)
            flooding.publish(
                publisher,
                Publication(schema, publication.values, publication_id=f"fp-{index}"),
            )
            covered.publish(
                publisher,
                Publication(schema, publication.values, publication_id=f"cp-{index}"),
            )

        # Flooding loses nothing by definition; pair-wise covering is
        # lossless, the probabilistic group policy may lose a tiny fraction.
        assert flooding.metrics.missed_notifications == 0
        if policy is CoveringPolicy.PAIRWISE:
            assert covered.metrics.missed_notifications == 0
        else:
            assert covered.metrics.report()["delivery_ratio"] >= 0.95
        # Covering can only reduce subscription traffic.
        assert (
            covered.metrics.subscription_messages
            <= flooding.metrics.subscription_messages
        )
        # Expected notifications are identical because the workload is.
        assert (
            covered.metrics.expected_notifications
            == flooding.metrics.expected_notifications
        )
