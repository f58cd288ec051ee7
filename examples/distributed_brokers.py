#!/usr/bin/env python3
"""The Figure 1 walkthrough: reverse path forwarding with covering.

Reconstructs the 9-broker overlay of the paper's Figure 1, issues the two
subscriptions ``s1`` and ``s2 ⊑ s1`` and the two publications ``n1``/``n2``
and prints which brokers carried which message — showing how the covering
relationship prunes the subscription traffic while the delivery trees still
reach every interested subscriber.  It then quantifies the Proposition 5
trade-off: how likely a publication still finds its way when a
subscription is erroneously withheld (Eq. 2).

Run with::

    python examples/distributed_brokers.py
"""

from repro.broker import BrokerNetwork, CoveringPolicy
from repro.broker.chain import ChainModel
from repro.model import Publication, Schema, Subscription


def build_network(policy=CoveringPolicy.PAIRWISE) -> BrokerNetwork:
    """The Figure 1 topology (a tree of nine brokers)."""
    edges = [
        ("B1", "B3"),
        ("B2", "B3"),
        ("B3", "B4"),
        ("B4", "B5"),
        ("B4", "B6"),
        ("B4", "B7"),
        ("B7", "B8"),
        ("B7", "B9"),
    ]
    return BrokerNetwork(edges, policy=policy, rng=2006)


def main() -> None:
    schema = Schema.uniform_integer(2, 0, 100, prefix="x")
    network = build_network()

    network.attach_client("S1", "B1")
    network.attach_client("S2", "B6")
    network.attach_client("P1", "B9")
    network.attach_client("P2", "B5")

    s1 = Subscription.from_constraints(
        schema, {"x1": (0, 60), "x2": (0, 60)}, subscription_id="s1"
    )
    s2 = Subscription.from_constraints(
        schema, {"x1": (10, 20), "x2": (10, 20)}, subscription_id="s2"
    )

    print("Subscribing S1 -> s1 (flooded through the overlay)")
    network.subscribe("S1", s1)
    after_s1 = network.metrics.subscription_messages
    print(f"  subscription messages so far: {after_s1}")

    print("Subscribing S2 -> s2 with s2 ⊑ s1 (covering prunes the flood)")
    network.subscribe("S2", s2)
    print(
        f"  additional subscription messages: "
        f"{network.metrics.subscription_messages - after_s1} "
        f"(suppressed forwarding decisions: {network.metrics.suppressed_subscriptions})"
    )

    print("\nRouting tables after both subscriptions:")
    for broker_id, size in sorted(network.routing_table_sizes().items()):
        known = [e.subscription.id for e in network.brokers[broker_id].routing]
        print(f"  {broker_id}: {size} entries {known}")

    n1 = Publication.from_values(schema, {"x1": 15, "x2": 15}, publication_id="n1")
    n2 = Publication.from_values(schema, {"x1": 50, "x2": 50}, publication_id="n2")

    print("\nPublishing n1 at P1 (matches s2 and therefore s1):")
    for record in network.publish("P1", n1):
        print(f"  delivered to {record.subscriber} at {record.broker} "
              f"via {record.subscription_id}")

    print("Publishing n2 at P2 (matches s1 only):")
    for record in network.publish("P2", n2):
        print(f"  delivered to {record.subscriber} at {record.broker} "
              f"via {record.subscription_id}")

    summary = network.metrics.report()
    print("\nNetwork metrics:")
    for key, value in summary.items():
        print(f"  {key}: {value}")

    # ------------------------------------------------------------------
    # Proposition 5: what if a covering decision was wrong?
    # ------------------------------------------------------------------
    print("\nProposition 5 / Eq. 2 — delivery probability after an erroneous")
    print("covering decision, along a chain of brokers (rho = publication")
    print("probability per broker, d = 50 RSPC trials):")
    print(f"  {'brokers':>8} {'rho=0.05':>10} {'rho=0.25':>10} {'rho=0.5':>10}")
    for brokers in (1, 2, 4, 8, 16, 32):
        row = [f"{brokers:>8}"]
        for rho in (0.05, 0.25, 0.5):
            model = ChainModel(rho=rho, rho_w=0.05, d=50, brokers=brokers)
            row.append(f"{model.delivery_probability():>10.4f}")
        print(" ".join(row))


if __name__ == "__main__":
    main()
