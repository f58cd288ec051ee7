"""Seeded differential sweeps: the batch-native fast path vs scalar.

Every batched stage of the broker pipeline must be observationally
identical to its one-at-a-time ancestor: whole-run delivery (grouped
``publish_many`` bursts vs bursts of one, which is all ``publish`` is —
report for report), the chunked burst drain under the dedup window, and
the batched route lookup.  The delivery sweep crosses all five reduction
policies with three scenario shapes — t0-smoke, t1-churn and a
scaled-down t2-burst — so the equivalence is pinned on realistic
workload distributions, not just synthetic boxes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.broker import grid_topology
from repro.broker.network import BrokerNetwork
from repro.model import Publication, Schema, Subscription
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.events import EventAction, compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner
from repro.scenarios.spec import PhaseKind, PhaseSpec

POLICIES = ("none", "pairwise", "group", "merging", "hybrid")

SEED = 7

#: keys stripped from report comparisons (wall-clock dependent)
VOLATILE = {"wall_time", "events_per_second"}


def _scenario_spec(name: str):
    if name == "t2-burst-scaled":
        base = get_scenario("t2-burst")
        return dataclasses.replace(
            base,
            name="t2-burst-scaled",
            phases=[
                PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 40}),
                PhaseSpec("burst-1", PhaseKind.PUBLISH_BURST, {"count": 60}),
                PhaseSpec(
                    "storm", PhaseKind.UNSUBSCRIBE_STORM, {"fraction": 0.5}
                ),
                PhaseSpec("re-ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 20}),
                PhaseSpec("burst-2", PhaseKind.PUBLISH_BURST, {"count": 60}),
            ],
        )
    return get_scenario(name)


def _compiled(name: str, policy: str):
    spec = dataclasses.replace(_scenario_spec(name), policy=policy)
    return spec, compile_scenario(spec, SEED)


def _scenario_subscriptions(name: str):
    """Subscriptions as the scenario's workload generator draws them."""
    _, compiled = _compiled(name, "none")
    return [
        event.subscription
        for event in compiled.events
        if event.action is EventAction.SUBSCRIBE
    ]


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


class TestPublishManySweep:
    """Whole-run delivery is identical with the burst path disabled."""

    @staticmethod
    def _scalarise(monkeypatch):
        """Force every burst through one publish_many call per operation
        (``publish`` itself is a burst of one)."""
        burst = BrokerNetwork.publish_many

        def sequential(self, operations):
            records = []
            for operation in operations:
                records.extend(burst(self, [operation]))
            return records

        monkeypatch.setattr(BrokerNetwork, "publish_many", sequential)

    @pytest.mark.parametrize("scenario", ("t0-smoke", "t1-churn", "t2-burst-scaled"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_reports_identical(self, scenario, policy, monkeypatch):
        spec, compiled = _compiled(scenario, policy)
        batched = ScenarioRunner(spec, seed=SEED, backend="network").run(
            compiled
        )
        self._scalarise(monkeypatch)
        scalar = ScenarioRunner(spec, seed=SEED, backend="network").run(
            compiled
        )
        assert batched.trace_hash == scalar.trace_hash
        assert _strip(batched.to_dict()) == _strip(scalar.to_dict())


class TestBatchDedup:
    """The chunked burst drain respects the dedup window on cycles."""

    def _network(self, dedup_window=4096):
        schema = Schema.uniform_integer(2, 0, 100)
        network = BrokerNetwork(
            grid_topology(3, 3), policy="none", dedup_window=dedup_window
        )
        network.attach_client("sub", "B1")
        network.attach_client("pub", "B9")
        network.subscribe(
            "sub", Subscription.from_constraints(schema, {"x1": (0, 100)})
        )
        return schema, network

    def test_burst_on_mesh_delivers_exactly_once_each(self):
        schema, network = self._network()
        burst = [
            ("pub", Publication.from_values(schema, {"x1": value, "x2": 0}))
            for value in range(20)
        ]
        delivered = network.publish_many(burst)
        assert len(delivered) == 20
        assert network.metrics.notifications == 20
        assert network.metrics.missed_notifications == 0

    def test_intra_batch_duplicate_values_each_delivered(self):
        """Equal payloads in distinct events are never deduplicated."""
        schema, network = self._network()
        burst = [
            ("pub", Publication.from_values(schema, {"x1": 5, "x2": 5}))
            for _ in range(5)
        ]
        delivered = network.publish_many(burst)
        assert len(delivered) == 5
        assert network.metrics.notifications == 5

    def test_intra_batch_duplicate_ids_match_sequential(self):
        """Re-publishing one event id dedups the same way batch or not."""
        schema, network = self._network()
        payload = Publication.from_values(schema, {"x1": 5, "x2": 5})
        batched = network.publish_many([("pub", payload)] * 5)

        schema2, reference = self._network()
        payload2 = Publication.from_values(schema2, {"x1": 5, "x2": 5})
        sequential = []
        for _ in range(5):
            sequential.extend(reference.publish("pub", payload2))
        assert len(batched) == len(sequential)
        assert (
            network.metrics.notifications == reference.metrics.notifications
        )

    def test_burst_larger_than_dedup_window_matches_sequential(self):
        """Chunked drains (burst > window) lose nothing on a mesh."""
        schema, network = self._network(dedup_window=4)
        burst = [
            ("pub", Publication.from_values(schema, {"x1": value, "x2": 1}))
            for value in range(13)
        ]
        delivered = network.publish_many(burst)
        assert len(delivered) == 13

        schema2, reference = self._network(dedup_window=4)
        total = 0
        for value in range(13):
            total += len(
                reference.publish(
                    "pub",
                    Publication.from_values(schema2, {"x1": value, "x2": 1}),
                )
            )
        assert total == 13
        assert (
            network.metrics.notifications == reference.metrics.notifications
        )
        assert (
            network.metrics.missed_notifications
            == reference.metrics.missed_notifications
        )


class TestRouteLookupBatch:
    """The broker's batched route lookup equals per-publication matching."""

    def test_match_batch_equals_sequential_on_scenario_subs(self):
        from repro.broker.routing import RouteEntry, RoutingTable, SourceKind
        from repro.workloads.generators import publication_inside

        subscriptions = _scenario_subscriptions("t1-churn")[:30]
        rng = np.random.default_rng(SEED)
        table = RoutingTable()
        for index, subscription in enumerate(subscriptions):
            table.add(
                RouteEntry(
                    subscription, SourceKind.LOCAL, f"c{index}", origin="B1"
                )
            )
        publications = [
            publication_inside(subscriptions[int(rng.integers(len(subscriptions)))], rng)
            for _ in range(25)
        ]
        batch = table.matching_entries_batch(publications)
        for publication, (matched, tests) in zip(publications, batch):
            # the reference is the backend's one-point lookup, not another
            # batch; both answer with the entries themselves
            expected, expected_tests = table._index.match_candidates(publication)
            assert [e.subscription.id for e in matched] == [
                entry.subscription.id for entry in expected
            ]
            assert table.matching_entries_batch([publication]) == [(matched, tests)]
            assert tests == expected_tests
