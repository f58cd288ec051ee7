"""Tests for the pluggable matcher backends and their threading.

Covers the backend protocol itself, the incremental (tombstoned)
vectorised indexes, the engine's backend delegation — including the
property-style differential sweep asserting that ``linear``, ``counting``
and ``selectivity`` agree on every :class:`MatchResult` under churn — the
incremental (no-rebuild) cover-forest unsubscription path, and the
backend selection threaded through the broker and scenario layers.
"""

import dataclasses

import numpy as np
import pytest

from repro.broker.network import BrokerNetwork
from repro.broker.routing import RouteEntry, RoutingTable, SourceKind
from repro.core.store import CoveringPolicyName
from repro.core.subsumption import SubsumptionChecker
from repro.matching.backends import BACKEND_NAMES, LinearBackend, make_backend
from repro.matching.counting_index import CountingIndex
from repro.matching.engine import MatchingEngine
from repro.matching.selectivity_index import SelectivityIndex
from repro.model import (
    CategoricalDomain,
    ContinuousDomain,
    IntegerDomain,
    Publication,
    Schema,
    Subscription,
)
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    make_workload,
    read_trace,
    write_trace,
)
from repro.scenarios.cli import main as scenarios_main
from repro.workloads.generators import random_publication, random_subscription


@pytest.fixture
def schema():
    return Schema.uniform_integer(3, 0, 200)


def box(schema, sid, x1, x2, subscriber=None):
    return Subscription.from_constraints(
        schema, {"x1": x1, "x2": x2}, subscription_id=sid, subscriber=subscriber
    )


# ----------------------------------------------------------------------
# Backend protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", BACKEND_NAMES)
class TestBackendProtocol:
    def test_add_remove_contains(self, name, schema):
        backend = make_backend(name)
        assert backend.name == name
        first = box(schema, "a", (0, 50), (0, 50))
        backend.add(first)
        backend.add(box(schema, "b", (60, 90), (60, 90)))
        assert len(backend) == 2
        assert "a" in backend and "missing" not in backend
        with pytest.raises(ValueError):
            backend.add(first)
        assert backend.remove("a")
        assert not backend.remove("a")
        assert len(backend) == 1

    def test_match_candidates_and_tests(self, name, schema):
        backend = make_backend(name)
        backend.add(box(schema, "a", (0, 50), (0, 50)))
        backend.add(box(schema, "b", (40, 90), (0, 100)))
        backend.add(box(schema, "c", (150, 180), (150, 180)))
        publication = Publication.from_values(schema, {"x1": 45, "x2": 20, "x3": 0})
        matched, tests = backend.match_candidates(publication)
        # Insertion order, whatever the backend.
        assert [s.id for s in matched] == ["a", "b"]
        assert tests == 3

    def test_empty_backend(self, name, schema):
        backend = make_backend(name)
        publication = Publication.from_values(schema, {"x1": 1, "x2": 1, "x3": 1})
        assert backend.match_candidates(publication) == ([], 0)
        assert backend.match_batch([publication]) == [([], 0)]

    def test_match_batch_equals_sequential(self, name, schema):
        rng = np.random.default_rng(5)
        backend = make_backend(name)
        for index in range(40):
            backend.add(
                random_subscription(schema, rng).replace(
                    subscription_id=f"s{index}"
                )
            )
        publications = [random_publication(schema, rng) for _ in range(25)]
        sequential = [backend.match_candidates(p) for p in publications]
        batch = backend.match_batch(publications)
        for (seq_subs, seq_tests), (batch_subs, batch_tests) in zip(
            sequential, batch
        ):
            assert [s.id for s in seq_subs] == [s.id for s in batch_subs]
            assert seq_tests == batch_tests

    def test_unknown_backend_rejected(self, name, schema):
        with pytest.raises(ValueError):
            make_backend(name + "-bogus")


# ----------------------------------------------------------------------
# Incremental vectorised indexes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("index_class", [CountingIndex, SelectivityIndex])
class TestIncrementalIndexes:
    def test_tombstones_then_compaction(self, index_class, schema):
        rng = np.random.default_rng(2)
        index = index_class(schema)
        subscriptions = [
            random_subscription(schema, rng).replace(subscription_id=f"s{i}")
            for i in range(64)
        ]
        index.add_all(subscriptions)
        for i in range(0, 64, 2):
            assert index.remove(f"s{i}")
        assert len(index) == 32
        # Tombstones were compacted away once they rivalled the live rows.
        assert index._dead == 0
        assert index._size == 32
        survivors = [s for i, s in enumerate(subscriptions) if i % 2]
        for _ in range(30):
            publication = random_publication(schema, rng)
            expected = [s.id for s in survivors if s.matches(publication)]
            assert [s.id for s in index.match(publication)] == expected

    def test_interleaved_add_remove_matches_bruteforce(self, index_class, schema):
        rng = np.random.default_rng(9)
        index = index_class(schema)
        live = {}
        counter = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.55 or not live:
                sid = f"s{counter}"
                counter += 1
                subscription = random_subscription(schema, rng).replace(
                    subscription_id=sid
                )
                index.add(subscription)
                live[sid] = subscription
            elif roll < 0.8:
                victim = list(live)[int(rng.integers(0, len(live)))]
                assert index.remove(victim)
                del live[victim]
            else:
                publication = random_publication(schema, rng)
                expected = {
                    sid for sid, s in live.items() if s.matches(publication)
                }
                assert {s.id for s in index.match(publication)} == expected
        assert len(index) == len(live)

    def test_match_batch_chunked(self, index_class, schema, monkeypatch):
        # Force tiny chunks so the chunking loop itself is exercised.
        monkeypatch.setattr(
            "repro.core.arena._CELL_BUDGET", 1
        )
        rng = np.random.default_rng(4)
        index = index_class(schema)
        for i in range(20):
            index.add(
                random_subscription(schema, rng).replace(subscription_id=f"s{i}")
            )
        publications = [random_publication(schema, rng) for _ in range(10)]
        batch = index.match_batch(publications)
        for publication, matched in zip(publications, batch):
            assert [s.id for s in matched] == [
                s.id for s in index.match(publication)
            ]


def _edge_schemas():
    inf = np.inf
    return [
        Schema.uniform_integer(3, 0, 200),
        Schema(
            [
                ("n", IntegerDomain(-5, 5)),
                ("x", ContinuousDomain(0.0, 1.0)),
                ("c", CategoricalDomain(["a", "b", "c"])),
            ],
            name="mixed",
        ),
        Schema(
            [("u", ContinuousDomain(-inf, inf)), ("v", ContinuousDomain(0.0, inf))],
            name="unbounded",
        ),
    ]


def _edge_publications(schema, rng):
    """Random points plus every corner of the domain (``±inf`` included)."""
    lows, highs = schema.full_bounds()
    corners = [np.where(mask, highs, lows) for mask in np.ndindex(*(2,) * schema.m)]
    finite_lows = np.where(np.isfinite(lows), lows, -1e6)
    finite_highs = np.where(np.isfinite(highs), highs, 1e6)
    inside = [rng.uniform(finite_lows, finite_highs) for _ in range(8)]
    zeros = [np.clip(np.zeros(schema.m), lows, highs), np.clip(-np.zeros(schema.m), lows, highs)]
    return [Publication(schema, values) for values in corners + inside + zeros]


def _edge_subscription(schema, rng, sid):
    """A random box; now and then one reaching a domain edge or a point."""
    lows, highs = schema.full_bounds()
    finite_lows = np.where(np.isfinite(lows), lows, -1e6)
    finite_highs = np.where(np.isfinite(highs), highs, 1e6)
    a = rng.uniform(finite_lows, finite_highs)
    b = rng.uniform(finite_lows, finite_highs)
    box_lows, box_highs = np.minimum(a, b), np.maximum(a, b)
    for j in range(schema.m):
        roll = rng.random()
        if roll < 0.15:
            box_lows[j] = lows[j]
        elif roll < 0.3:
            box_highs[j] = highs[j]
        elif roll < 0.4:
            box_highs[j] = box_lows[j]
    return Subscription(schema, box_lows, box_highs, subscription_id=sid)


# an unbounded domain has no finite extent to normalise widths by: the
# selectivity statistics of that attribute are NaN (it is evaluated last)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("index_class", [CountingIndex, SelectivityIndex])
@pytest.mark.parametrize("seed", range(4))
def test_indexes_equal_the_linear_scan_through_grow_remove_compact(index_class, seed):
    """Content *and* order of ``match``/``match_batch`` vs ``LinearBackend``
    over random add/remove sequences that grow the matrix, tombstone
    columns and compact them away — at domain edges too, where a stale or
    never-used column would be easiest to mistake for a match."""
    for schema in _edge_schemas():
        rng = np.random.default_rng([seed, schema.m])
        index = index_class(schema)
        linear = LinearBackend()
        live = []
        counter = grown = compacted = 0
        for step in range(260):
            # bursts of adds, then bursts of removals, so that both the
            # doubling and the compaction threshold are crossed repeatedly
            adding = (step // 40) % 2 == 0 or not live
            if adding or rng.random() < 0.2:
                subscription = _edge_subscription(schema, rng, f"s{counter}")
                counter += 1
                capacity = index._signed.shape[1]
                index.add(subscription)
                grown += index._signed.shape[1] != capacity
                linear.add(subscription)
                live.append(subscription.id)
            else:
                victim = live.pop(int(rng.integers(0, len(live))))
                dead = index._dead
                assert index.remove(victim) and linear.remove(victim)
                compacted += index._dead < dead
            assert len(index) == len(linear) == len(live)
            if step % 7:
                continue
            # one bounds matrix; whatever is not a live column is NaN
            assert not hasattr(index, "_lows") and not hasattr(index, "_highs")
            signed = index._signed
            assert signed.shape[0] == 2 * schema.m
            assert np.isnan(signed[:, index._size :]).all()
            used = [s is not None for s in index._subscriptions]
            assert len(used) == index._size
            assert np.isnan(signed[:, : index._size][:, ~np.array(used, dtype=bool)]).all()
            publications = _edge_publications(schema, rng)
            expected = [
                [s.id for s in linear.match_candidates(p)[0]] for p in publications
            ]
            assert [[s.id for s in index.match(p)] for p in publications] == expected
            assert [
                [s.id for s in matched] for matched in index.match_batch(publications)
            ] == expected
        assert grown >= 3 and compacted >= 2
        assert any(expected)  # the last probe round matched something


class TestSelectivityIncrementalOrder:
    def test_order_tracks_removals(self, schema):
        index = SelectivityIndex(schema)
        index.add(box(schema, "narrow-x2", "*", (10, 12)))
        index.add(box(schema, "narrow-x1", (10, 12), "*"))
        index.add(box(schema, "narrow-x2-too", "*", (40, 42)))
        assert index.attribute_order[0] == "x2"
        index.remove("narrow-x2")
        index.remove("narrow-x2-too")
        assert index.attribute_order[0] == "x1"


# ----------------------------------------------------------------------
# Engine differential sweep (satellite: linear / counting / selectivity
# must agree on MatchResults under churny randomised workloads)
# ----------------------------------------------------------------------
def _fresh_engines(policy, seed):
    return {
        name: MatchingEngine(
            policy=policy,
            checker=SubsumptionChecker(delta=1e-9, max_iterations=2000, rng=seed),
            backend=name,
        )
        for name in BACKEND_NAMES
    }


@pytest.mark.parametrize("workload_name", ["bike-rental", "grid"])
@pytest.mark.parametrize(
    "policy", [CoveringPolicyName.PAIRWISE, CoveringPolicyName.GROUP]
)
@pytest.mark.parametrize("seed", [0, 1])
def test_backends_agree_under_churn(workload_name, policy, seed):
    """Property-style sweep: all backends produce identical MatchResults."""
    rng = np.random.default_rng(seed)
    workload = make_workload(workload_name, {}, np.random.default_rng(seed + 100))
    engines = _fresh_engines(policy, seed)
    live = []
    counter = 0
    for _ in range(220):
        roll = rng.random()
        if roll < 0.45 or not live:
            counter += 1
            subscription = workload.subscription(
                subscriber=f"client-{counter % 9}"
            ).replace(subscription_id=f"s{counter:04d}")
            for engine in engines.values():
                engine.subscribe(subscription)
            live.append(subscription.id)
        elif roll < 0.65:
            victim = live.pop(int(rng.integers(0, len(live))))
            for engine in engines.values():
                engine.unsubscribe(victim)
        else:
            publication = workload.publication()
            results = {
                name: engine.match(publication)
                for name, engine in engines.items()
            }
            reference = results["linear"]
            for name, result in results.items():
                assert set(result.matched_ids) == set(reference.matched_ids), (
                    name,
                    publication.id,
                )
                assert set(result.subscribers) == set(reference.subscribers), name
            # The two vectorised backends also agree on the test counters
            # (both charge one test per candidate row consulted).
            counting, selectivity = results["counting"], results["selectivity"]
            assert counting.active_tests == selectivity.active_tests
            assert counting.covered_tests == selectivity.covered_tests
    sizes = {name: len(engine) for name, engine in engines.items()}
    assert len(set(sizes.values())) == 1


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_duplicate_subscribe_rejected_before_mutation(backend, schema):
    """A duplicate id must fail loudly and leave no state behind."""
    engine = MatchingEngine(policy=CoveringPolicyName.PAIRWISE, backend=backend)
    subscription = box(schema, "dup", (0, 50), (0, 50), subscriber="amy")
    engine.subscribe(subscription)
    with pytest.raises(ValueError):
        engine.subscribe(subscription)
    assert len(engine) == 1
    engine.unsubscribe("dup")
    assert len(engine) == 0
    publication = Publication.from_values(schema, {"x1": 10, "x2": 10, "x3": 0})
    assert engine.match(publication).matched_ids == ()


def test_engine_match_batch_equals_sequential(schema):
    rng = np.random.default_rng(3)
    subscriptions = [
        random_subscription(schema, rng).replace(
            subscription_id=f"s{i}", subscriber=f"c{i % 5}"
        )
        for i in range(60)
    ]
    publications = [random_publication(schema, rng) for _ in range(40)]
    for backend in BACKEND_NAMES:
        sequential = MatchingEngine(
            policy=CoveringPolicyName.PAIRWISE, backend=backend
        )
        batched = MatchingEngine(
            policy=CoveringPolicyName.PAIRWISE, backend=backend
        )
        sequential.subscribe_all(subscriptions)
        batched.subscribe_all(subscriptions)
        expected = [sequential.match(p) for p in publications]
        actual = batched.match_batch(publications)
        for one, other in zip(expected, actual):
            assert one.matched_ids == other.matched_ids
            assert one.subscribers == other.subscribers
            assert one.active_tests == other.active_tests
            assert one.covered_tests == other.covered_tests
        assert sequential.stats == batched.stats


# ----------------------------------------------------------------------
# Incremental cover-forest unsubscription (satellite: no full rebuild)
# ----------------------------------------------------------------------
class TestIncrementalForestUnsubscribe:
    def test_no_rebuild_method_and_same_forest_object(self, schema):
        engine = MatchingEngine(policy=CoveringPolicyName.PAIRWISE)
        # The seed's rebuild-on-unsubscribe entry point is gone for good.
        assert not hasattr(engine, "_rebuild_forest")
        engine.subscribe(box(schema, "small", (10, 20), (10, 20)))
        engine.subscribe(box(schema, "mid", (5, 40), (5, 40)))
        engine.subscribe(box(schema, "big", (0, 50), (0, 50)))
        forest = engine._forest
        assert engine._forest.depth("small") == 2
        engine.unsubscribe("mid")
        assert engine._forest is forest
        # The chain was spliced, not rebuilt: small now hangs off big.
        assert engine._forest.depth("small") == 1

    def test_unsubscribe_keeps_matching_lossless(self, schema):
        """Random churn: the incrementally maintained engine never diverges
        from brute force over the live subscriptions (pairwise policy is
        deterministic, hence lossless)."""
        rng = np.random.default_rng(12)
        engine = MatchingEngine(policy=CoveringPolicyName.PAIRWISE)
        forest = engine._forest
        live = {}
        for index in range(150):
            subscription = random_subscription(
                schema, rng, width_fraction=(0.2, 0.7)
            ).replace(subscription_id=f"s{index}", subscriber=f"c{index % 11}")
            engine.subscribe(subscription)
            live[subscription.id] = subscription
        order = list(live)
        rng.shuffle(order)
        for victim in order[:120]:
            engine.unsubscribe(victim)
            del live[victim]
            if len(live) % 10 == 0:
                for _ in range(5):
                    publication = random_publication(schema, rng)
                    expected = {
                        s.subscriber
                        for s in live.values()
                        if s.matches(publication)
                    }
                    assert set(engine.match(publication).subscribers) == expected
        assert engine._forest is forest
        assert len(engine) == len(live)

    def test_group_policy_churn_stays_consistent(self, schema):
        """Group-covered buckets survive incremental removal of coverers."""
        rng = np.random.default_rng(21)
        engine = MatchingEngine(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-9, max_iterations=2000, rng=0),
        )
        oracle = MatchingEngine(
            policy=CoveringPolicyName.GROUP,
            checker=SubsumptionChecker(delta=1e-9, max_iterations=2000, rng=0),
            backend="counting",
        )
        live = []
        for index in range(120):
            subscription = random_subscription(
                schema, rng, width_fraction=(0.3, 0.8)
            ).replace(subscription_id=f"s{index}", subscriber=f"c{index % 7}")
            engine.subscribe(subscription)
            oracle.subscribe(subscription)
            live.append(subscription.id)
            if index % 3 == 2:
                victim = live.pop(int(rng.integers(0, len(live))))
                engine.unsubscribe(victim)
                oracle.unsubscribe(victim)
            if index % 10 == 9:
                publication = random_publication(schema, rng)
                assert set(engine.match(publication).matched_ids) == set(
                    oracle.match(publication).matched_ids
                )


# ----------------------------------------------------------------------
# Broker-layer threading
# ----------------------------------------------------------------------
class TestRoutingTableBackends:
    def test_matching_entries_identical_across_backends(self, schema):
        rng = np.random.default_rng(8)
        tables = {
            name: RoutingTable(matcher_backend=name) for name in BACKEND_NAMES
        }
        for index in range(50):
            subscription = random_subscription(schema, rng).replace(
                subscription_id=f"s{index}"
            )
            entry = RouteEntry(
                subscription=subscription,
                source_kind=SourceKind.LOCAL,
                source_id=f"c{index}",
                origin="B1",
            )
            for table in tables.values():
                assert table.add(entry)
        for index in range(0, 50, 3):
            for table in tables.values():
                table.remove(f"s{index}")
        for _ in range(30):
            publication = random_publication(schema, rng)
            reference = [
                e.subscription.id
                for e in tables["linear"].matching_entries(publication)
            ]
            for name, table in tables.items():
                assert [
                    e.subscription.id for e in table.matching_entries(publication)
                ] == reference, name

    def test_network_metrics_identical_across_backends(self):
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=3)
        reports = {
            name: ScenarioRunner(backend="network", engine_backend=name).run(
                compiled
            )
            for name in BACKEND_NAMES
        }
        reference = reports["linear"]
        for name, report in reports.items():
            assert report.phase_metrics() == reference.phase_metrics(), name
            assert report.totals == reference.totals, name
            assert report.engine_backend == name


# ----------------------------------------------------------------------
# Scenario-layer threading, traces and replay
# ----------------------------------------------------------------------
class TestScenarioThreading:
    def test_spec_round_trip_preserves_engine_backend(self):
        spec = dataclasses.replace(
            get_scenario("t0-smoke"), engine_backend="counting"
        )
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.engine_backend == "counting"
        assert clone.to_dict() == spec.to_dict()

    def test_default_backend_keeps_pre_seam_serialization(self):
        """Specs (and therefore trace hashes) predating the backend seam
        must be unaffected: the default backend is omitted from to_dict."""
        payload = get_scenario("t0-smoke").to_dict()
        assert "engine_backend" not in payload
        assert ScenarioSpec.from_dict(payload).engine_backend == "linear"

    def test_spec_rejects_unknown_engine_backend(self):
        with pytest.raises(ValueError):
            dataclasses.replace(
                get_scenario("t0-smoke"), engine_backend="quantum"
            )

    def test_trace_records_engine_backend_and_replays_exactly(self, tmp_path):
        spec = dataclasses.replace(
            get_scenario("t0-smoke"), engine_backend="selectivity"
        )
        compiled = compile_scenario(spec, seed=11)
        path = tmp_path / "run.jsonl"
        write_trace(path, compiled, backend="engine")
        loaded = read_trace(path)
        assert loaded.recorded_engine_backend == "selectivity"
        assert loaded.spec.engine_backend == "selectivity"
        original = ScenarioRunner(backend="engine").run(compiled)
        replayed = ScenarioRunner(backend="engine").run(loaded)
        assert original.engine_backend == "selectivity"
        assert replayed.engine_backend == "selectivity"
        assert replayed.phase_metrics() == original.phase_metrics()
        assert replayed.totals == original.totals
        assert replayed.trace_hash == original.trace_hash

    def test_engine_backend_changes_trace_hash(self):
        base = compile_scenario(get_scenario("t0-smoke"), seed=11)
        variant = compile_scenario(
            dataclasses.replace(
                get_scenario("t0-smoke"), engine_backend="counting"
            ),
            seed=11,
        )
        assert base.trace_hash() != variant.trace_hash()

    def test_runner_override_beats_spec(self):
        compiled = compile_scenario(get_scenario("t0-smoke"), seed=2)
        report = ScenarioRunner(
            backend="engine", engine_backend="counting"
        ).run(compiled)
        assert report.engine_backend == "counting"
        assert report.to_dict()["engine_backend"] == "counting"

    def test_cli_engine_backend_run_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "cli.jsonl"
        assert (
            scenarios_main(
                [
                    "run",
                    "t0-smoke",
                    "--seed",
                    "7",
                    "--engine-backend",
                    "selectivity",
                    "--trace",
                    str(trace),
                    "--json",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert '"engine_backend": "selectivity"' in captured.out
        assert scenarios_main(["replay", str(trace), "--json"]) == 0
        replay_out = capsys.readouterr().out
        assert '"engine_backend": "selectivity"' in replay_out
