"""The one matcher against a linear scan, and the engine's Algorithm 5 gate.

:class:`~repro.core.arena.Matcher` answers every publication lookup:
the engine's active and covered sets (its store's two pools), every
broker's routing table and the network's delivery oracle.  Its reference here is :func:`scan`, a
plain loop over the live subscriptions in insertion order.

* the edge sweep: discrete, continuous (``±inf``), mixed, one-attribute
  and six-attribute schemas; fresh tables and churned ones (tombstoned
  and compacted columns);
  bursts of 1, 2, 65 and 5000 publications; every answer — candidates, their order, the tests charged — equal
  to the scan;
* the storage contract: one NaN-filled signed matrix grown, tombstoned
  and compacted in place (counted in ``compactions``/``moved_rows``), one
  schema per matcher, one workspace budget;
* payloads: every lookup answers with each column's caller object (the
  subscription by default), through compaction, on the dense and the
  chunked path, at B = 0 and 1, and ``boxes_containing``'s pairs come
  row-major;
* lookups by hand through ``match_candidates`` and ``match_batch``;
* the engine under churn, all five policies, on uniform boxes and two
  scenario workloads: the matched set equals a brute-force scan of the
  store whenever an active subscription matched, and nothing
  (``covered_tests == 0``) otherwise; mass unsubscription stays
  lossless;
* the matcher-backend labels that stay for recorded traces: validated,
  recorded and echoed, selecting nothing.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.broker import grid_topology
from repro.broker.network import BrokerNetwork
from repro.core import arena
from repro.core.arena import Matcher
from repro.core.subsumption import SubsumptionChecker
from repro.matching.engine import MatchingEngine
from repro.matching.matcher import BACKEND_NAMES
from repro.model import (
    CategoricalDomain,
    ContinuousDomain,
    IntegerDomain,
    Publication,
    Schema,
    Subscription,
)
from repro.model.errors import ValidationError
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
from repro.shard.engine import ShardedMatchingEngine
from repro.workloads.generators import random_publication, random_subscription

POLICIES = ("none", "pairwise", "group", "merging", "hybrid")


def scan(live, publication):
    """The reference: ``(live subscriptions holding the point, in insertion
    order, one test charged per live subscription)``."""
    values = publication.values_list
    return [s for s in live if s.contains_values(values)], len(live)


def _ids(results):
    return [([s.id for s in matched], tests) for matched, tests in results]


SCHEMAS = {
    "discrete": Schema.uniform_integer(3, 0, 200),
    "continuous": Schema(
        [
            ("u", ContinuousDomain(-np.inf, np.inf)),
            ("v", ContinuousDomain(0.0, np.inf)),
        ],
        name="unbounded",
    ),
    "mixed": Schema(
        [
            ("n", IntegerDomain(-5, 5)),
            ("x", ContinuousDomain(0.0, 1.0)),
            ("c", CategoricalDomain(["a", "b", "c"])),
        ],
        name="mixed",
    ),
    "scalar": Schema([("t", ContinuousDomain(0.0, 1.0))], name="scalar"),
    "wide": Schema.uniform_integer(6, 0, 50),
}


def _finite_bounds(schema):
    lows, highs = schema.full_bounds()
    return (
        np.where(np.isfinite(lows), lows, -1e6),
        np.where(np.isfinite(highs), highs, 1e6),
    )


def _subscriptions(schema, rng, count, prefix="s"):
    """Random boxes; some reach a domain edge (``±inf`` where the domain is
    unbounded), some are single points, and every fifth repeats the
    bounds of the box before it under a new identifier."""
    lows, highs = schema.full_bounds()
    finite_lows, finite_highs = _finite_bounds(schema)
    discrete = schema.vectors.signed_discrete
    made = []
    for index in range(count):
        if index % 5 == 4:
            twin = made[-1]
            made.append(
                Subscription(
                    schema, twin.lows, twin.highs, subscription_id=f"{prefix}{index}"
                )
            )
            continue
        a = rng.uniform(finite_lows, finite_highs)
        b = rng.uniform(finite_lows, finite_highs)
        if discrete is not False:
            a, b = np.round(a), np.round(b)
        box_lows, box_highs = np.minimum(a, b), np.maximum(a, b)
        for j in range(schema.m):
            roll = rng.random()
            if roll < 0.15:
                box_lows[j] = lows[j]
            elif roll < 0.3:
                box_highs[j] = highs[j]
            elif roll < 0.4:
                box_highs[j] = box_lows[j]
        made.append(
            Subscription(schema, box_lows, box_highs, subscription_id=f"{prefix}{index}")
        )
    return made


def _publications(schema, rng, count, subscriptions):
    """Random points, every corner of the domain, points exactly on stored
    bounds, and NaN coordinates."""
    finite_lows, finite_highs = _finite_bounds(schema)
    lows, highs = schema.full_bounds()
    made = []
    for index in range(count):
        roll = index % 7
        if index < 2 ** schema.m and index % 3 == 0:
            mask = np.array([(index >> j) & 1 for j in range(schema.m)], dtype=bool)
            values = np.where(mask, highs, lows)
        elif roll == 5 and subscriptions:
            # exactly on the lower or the upper corner of a stored box
            box = subscriptions[int(rng.integers(len(subscriptions)))]
            values = np.where(rng.random(schema.m) < 0.5, box.lows, box.highs)
        elif roll == 6:
            values = rng.uniform(finite_lows, finite_highs)
            values[int(rng.integers(schema.m))] = np.nan
        else:
            values = np.clip(rng.uniform(finite_lows, finite_highs), lows, highs)
        made.append(Publication(schema, values, publication_id=f"p{index}"))
    return made


def _filled(schema, rng, k, churned):
    """A matcher and the scan's dict holding the same ``k`` subscriptions.

    ``churned`` tables got there through twice as many adds, removals
    that tombstone and compact the columns, and a few late re-adds.
    """
    matcher, live = Matcher(), {}

    def add(subscription):
        matcher.add(subscription)
        live[subscription.id] = subscription

    if not churned:
        for subscription in _subscriptions(schema, rng, k):
            add(subscription)
        return matcher, live
    pool = _subscriptions(schema, rng, 2 * k + 4)
    for subscription in pool:
        add(subscription)
    late = min(3, k)
    doomed = [s.id for s in pool[::2]] + [s.id for s in pool[1::2]]
    for subscription_id in doomed[: len(pool) - k + late]:
        assert matcher.remove(subscription_id)
        del live[subscription_id]
    for subscription in _subscriptions(schema, rng, late, prefix="late"):
        add(subscription)
    assert len(matcher) == len(live) == k
    return matcher, live


# ----------------------------------------------------------------------
# The edge sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("churned", (False, True), ids=("fresh", "churned"))
@pytest.mark.parametrize("k", (0, 1, 7, 64, 300))
@pytest.mark.parametrize("family", sorted(SCHEMAS))
def test_matcher_equals_the_scan(family, k, churned):
    schema = SCHEMAS[family]
    rng = np.random.default_rng([k, churned, len(family)])
    matcher, live = _filled(schema, rng, k, churned)
    stored = list(live.values())
    for burst in (1, 2, 65, 5000):
        publications = _publications(schema, rng, burst, stored)
        expected = _ids([scan(stored, p) for p in publications])
        assert _ids(matcher.match_batch(publications)) == expected, burst
        sample = range(burst) if burst <= 65 else range(0, burst, 125)
        for i in sample:
            assert _ids([matcher.match_candidates(publications[i])])[0] == expected[i]
    if k and family != "continuous":
        assert any(matched for matched, _tests in expected)


@pytest.mark.parametrize("seed", range(4))
def test_grow_remove_compact_keeps_the_matrix_honest(seed):
    """Bursts of adds then bursts of removals cross the doubling and the
    compaction threshold repeatedly; the one bounds matrix stays NaN
    wherever no live column is, and every answer equals the scan."""
    for schema in SCHEMAS.values():
        rng = np.random.default_rng([seed, schema.m])
        matcher, live = Matcher(), {}
        pool = iter(_subscriptions(schema, rng, 400))
        grown = compacted = 0
        for step in range(260):
            if (step // 40) % 2 == 0 or not live or rng.random() < 0.1:
                subscription = next(pool)
                capacity = matcher._signed.shape[1]
                matcher.add(subscription)
                grown += matcher._signed.shape[1] != capacity
                live[subscription.id] = subscription
            else:
                victim = list(live)[int(rng.integers(len(live)))]
                dead = matcher._dead
                assert matcher.remove(victim)
                del live[victim]
                compacted += matcher._dead < dead
            assert len(matcher) == len(live)
            if step % 7:
                continue
            signed = matcher._signed
            assert signed.shape[0] == 2 * schema.m
            assert np.isnan(signed[:, matcher._size :]).all()
            used = np.array([s is not None for s in matcher._subscriptions], dtype=bool)
            assert len(used) == matcher._size
            assert np.isnan(signed[:, : matcher._size][:, ~used]).all()
            publications = _publications(schema, rng, 12, list(live.values()))
            expected = _ids([scan(list(live.values()), p) for p in publications])
            assert _ids(matcher.match_candidates(p) for p in publications) == expected
            assert _ids(matcher.match_batch(publications)) == expected
        assert grown >= 3 and compacted >= 3


def test_churned_tables_crossed_tombstones_and_compaction():
    """The sweep's churned tables really exercise both column states."""
    matcher, live = _filled(SCHEMAS["discrete"], np.random.default_rng(1), 64, True)
    assert matcher._dead > 0 and matcher._size < 2 * 64 + 4
    assert np.isnan(matcher._signed[:, : matcher._size]).any()
    assert [s.id for s in matcher._subscriptions if s is not None] == list(live)


def test_never_restacks_between_mutations():
    schema = SCHEMAS["discrete"]
    rng = np.random.default_rng(3)
    matcher = Matcher()
    for subscription in _subscriptions(schema, rng, 20):
        matcher.add(subscription)
    matrix = matcher._signed
    publications = _publications(schema, rng, 4, [])
    for subscription in _subscriptions(schema, rng, 6, prefix="t"):
        matcher.add(subscription)
        matcher.match_batch(publications)
        matcher.remove(subscription.id)
        matcher.match_batch(publications)
    assert matcher._signed is matrix


@pytest.mark.parametrize("family", sorted(SCHEMAS))
def test_tombstones_then_compaction(family):
    """Removing every other one of 64 subscriptions compacts the columns
    exactly when the tombstones reach the live count, and the survivors
    keep their insertion order."""
    schema = SCHEMAS[family]
    rng = np.random.default_rng([2, schema.m])
    matcher = Matcher()
    subscriptions = _subscriptions(schema, rng, 64)
    for subscription in subscriptions:
        matcher.add(subscription)
    for i in range(0, 64, 2):
        assert matcher._dead == i // 2
        assert matcher.remove(subscriptions[i].id)
    assert len(matcher) == 32 and matcher._dead == 0 and matcher._size == 32
    assert (matcher.compactions, matcher.moved_rows) == (1, 32)
    survivors = subscriptions[1::2]
    assert [s.id for s in matcher._subscriptions] == [s.id for s in survivors]
    publications = _publications(schema, rng, 30, survivors)
    expected = _ids([scan(survivors, p) for p in publications])
    assert _ids(matcher.match_candidates(p) for p in publications) == expected
    assert _ids(matcher.match_batch(publications)) == expected


def test_compaction_counts_the_columns_it_moves():
    """Compaction fires once tombstones reach the live columns, and
    ``moved_rows`` counts only the survivors that changed column."""
    schema = SCHEMAS["discrete"]
    subscriptions = _subscriptions(schema, np.random.default_rng(5), 64)
    for doomed, moved in ((subscriptions[32:], 0), (subscriptions[:32], 32)):
        matcher = Matcher()
        for subscription in subscriptions:
            matcher.add(subscription)
        for subscription in doomed[:-1]:
            matcher.remove(subscription.id)
        assert matcher.compactions == 0
        matcher.remove(doomed[-1].id)
        assert (matcher.compactions, matcher.moved_rows, matcher._size) == (1, moved, 32)
        survivors = [s.id for s in subscriptions if s not in doomed]
        assert [s.id for s in matcher] == survivors
        assert tuple(s.id for s in matcher.candidates()) == tuple(survivors)


@pytest.mark.parametrize("family", sorted(SCHEMAS))
def test_match_batch_chunked(family, monkeypatch):
    """A one-cell budget makes every point its own kernel chunk."""
    schema = SCHEMAS[family]
    rng = np.random.default_rng([4, schema.m])
    matcher, live = _filled(schema, rng, 20, True)
    stored = list(live.values())
    publications = _publications(schema, rng, 10, stored)
    expected = _ids([scan(stored, p) for p in publications])
    monkeypatch.setattr(arena, "_CELL_BUDGET", 1)
    calls = [0]
    kernel = arena.boxes_meeting

    def counted(signed, limit):
        calls[0] += limit.ndim == 2
        return kernel(signed, limit)

    monkeypatch.setattr(arena, "boxes_meeting", counted)
    assert _ids(matcher.match_batch(publications)) == expected
    assert calls[0] == len(publications)


# ----------------------------------------------------------------------
# Payloads: a lookup answers with each column's caller object
# ----------------------------------------------------------------------
class _Payload:
    """A caller object other than the subscription, compared by identity."""

    __slots__ = ("subscription_id",)

    def __init__(self, subscription_id):
        self.subscription_id = subscription_id


def _assert_payloads(answers, expected):
    """Per row: the same payload objects in the same order, equal tests."""
    assert [tests for _, tests in answers] == [tests for _, tests in expected]
    for (got, _), (want, _) in zip(answers, expected):
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


@pytest.mark.parametrize("path", ("dense", "chunked"))
@pytest.mark.parametrize("family", ("discrete", "mixed"))
@pytest.mark.parametrize("seed", range(3))
def test_payloads_follow_their_columns(seed, family, path, monkeypatch):
    """Random add/remove runs that cross compaction: ``match_values``,
    ``match_batch`` and ``match_candidates`` answer every row with exactly
    ``[payload[c] for c in <the scan's columns>]``, at B = 0, 1 and 7, with
    empty rows among them, on the dense path and on the chunked
    ``_surviving`` path (a budget of one point per chunk)."""
    schema = SCHEMAS[family]
    surviving = [0]
    kernel = arena._surviving

    def counted(signed, limits):
        surviving[0] += 1
        return kernel(signed, limits)

    monkeypatch.setattr(arena, "_surviving", counted)
    if path == "chunked":
        monkeypatch.setattr(arena, "_CELL_BUDGET", 1)
    rng = np.random.default_rng([seed, schema.m, path == "chunked"])
    matcher, live, payloads = Matcher(), {}, {}
    pool = iter(_subscriptions(schema, rng, 300))
    rows = Counter()
    for step in range(200):
        if (step // 30) % 2 == 0 or not live:
            subscription = next(pool)
            # every third column keeps the default payload: the subscription
            payload = None if step % 3 == 0 else _Payload(subscription.id)
            matcher.add(subscription, payload)
            live[subscription.id] = subscription
            payloads[subscription.id] = payload or subscription
        else:
            victim = list(live)[int(rng.integers(len(live)))]
            assert matcher.remove(victim) is live.pop(victim)
            del payloads[victim]
        if step % 10:
            continue
        stored = list(live.values())
        for burst in (0, 1, 7):
            publications = _publications(schema, rng, burst, stored)
            expected = []
            for publication in publications:
                matched, tests = scan(stored, publication)
                expected.append(([payloads[s.id] for s in matched], tests))
                rows[bool(matched)] += 1
            values = np.array([p.values for p in publications]).reshape(burst, schema.m)
            _assert_payloads(matcher.match_values(values), expected)
            _assert_payloads(matcher.match_batch(publications), expected)
            singles = [matcher.match_candidates(p) for p in publications]
            _assert_payloads(singles, expected)
    assert matcher.compactions >= 2
    assert rows[True] and rows[False]
    assert (surviving[0] > 0) is (path == "chunked")


def test_payloads_of_the_empty_matcher():
    schema = SCHEMAS["discrete"]
    matcher = Matcher()
    publication = Publication(schema, [1, 1, 1])
    assert matcher.match_values(np.empty((3, 0))) == [([], 0)] * 3
    assert matcher.match_values(np.empty((0, 0))) == []
    assert matcher.match_batch([publication]) == [([], 0)]
    assert matcher.match_candidates(publication) == ([], 0)
    subscription = Subscription.whole_space(schema, subscription_id="all")
    matcher.add(subscription, ("payload",))
    assert matcher.match_batch([publication]) == [([("payload",)], 1)]
    matcher.remove("all")
    assert matcher.match_batch([publication]) == [([], 0)]


def test_boxes_containing_is_row_major(monkeypatch):
    """The flat ``(points, columns)`` pairs: points ascend, and columns
    ascend within a point, on both paths."""
    schema = SCHEMAS["discrete"]
    rng = np.random.default_rng(8)
    matcher, live = _filled(schema, rng, 40, False)
    values = matcher.value_block(_publications(schema, rng, 30, list(live.values())))
    signed = matcher._signed[:, : matcher._size]
    mask = arena.boxes_meeting(signed, np.concatenate((values, -values), axis=1).T)
    dense = arena.boxes_containing(signed, values)
    for got, want in zip(dense, np.nonzero(mask)):
        assert np.array_equal(got, want)
    # seven points per chunk, so ``_surviving`` runs
    monkeypatch.setattr(arena, "_CELL_BUDGET", 7 * signed.size)
    for got, want in zip(arena.boxes_containing(signed, values), dense):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Lookups by hand, through each entry point
# ----------------------------------------------------------------------
def _lookup(matcher, publications, via):
    if via == "candidates":
        return [matcher.match_candidates(p) for p in publications]
    return matcher.match_batch(publications)


@pytest.mark.parametrize("via", ("candidates", "batch"))
class TestLookup:
    @pytest.fixture
    def schema(self):
        return Schema.uniform_integer(3, 0, 100)

    @pytest.fixture
    def matcher(self, schema):
        matcher = Matcher()
        for subscription in (
            Subscription.from_constraints(
                schema, {"x1": (0, 50), "x2": (0, 50)}, subscription_id="a"
            ),
            Subscription.from_constraints(
                schema, {"x1": (40, 90), "x3": (10, 20)}, subscription_id="b"
            ),
            Subscription.from_constraints(schema, {}, subscription_id="everything"),
        ):
            matcher.add(subscription)
        return matcher

    def test_match_results(self, via, schema, matcher):
        publication = Publication.from_values(schema, {"x1": 45, "x2": 10, "x3": 15})
        assert _ids(_lookup(matcher, [publication], via)) == [
            (["a", "b", "everything"], 3)
        ]

    def test_match_empty_matcher(self, via, schema):
        publication = Publication.from_values(schema, {"x1": 1, "x2": 1, "x3": 1})
        assert _lookup(Matcher(), [publication], via) == [([], 0)]

    def test_no_match(self, via, schema, matcher):
        matcher.remove("everything")
        publication = Publication.from_values(schema, {"x1": 99, "x2": 99, "x3": 99})
        assert _lookup(matcher, [publication], via) == [([], 2)]

    def test_remove(self, via, schema, matcher):
        assert matcher.remove("a")
        assert not matcher.remove("missing")
        publication = Publication.from_values(schema, {"x1": 45, "x2": 10, "x3": 15})
        assert _ids(_lookup(matcher, [publication], via)) == [(["b", "everything"], 2)]
        assert len(matcher) == 2

    def test_tests_charged_count_live_subscriptions_only(self, via, schema, matcher):
        """Tombstoned columns are still scanned but never charged."""
        for index in range(5):
            matcher.add(Subscription.whole_space(schema, subscription_id=f"w{index}"))
        for index in range(0, 5, 2):
            matcher.remove(f"w{index}")
        assert matcher._dead == 3 and matcher._size == 8
        publication = Publication.from_values(schema, {"x1": 99, "x2": 99, "x3": 99})
        assert _ids(_lookup(matcher, [publication], via)) == [
            (["everything", "w1", "w3"], 5)
        ]

    def test_agreement_with_bruteforce(self, via, schema):
        rng = np.random.default_rng(11)
        subscriptions = [
            random_subscription(schema, rng).replace(subscription_id=f"s{i}")
            for i in range(50)
        ]
        matcher = Matcher()
        for subscription in subscriptions:
            matcher.add(subscription)
        publications = [random_publication(schema, rng) for _ in range(50)]
        expected = [
            ([s.id for s in subscriptions if s.matches(p)], 50) for p in publications
        ]
        assert _ids(_lookup(matcher, publications, via)) == expected
        assert any(matched for matched, _tests in expected)


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
def test_add_remove_contains_and_the_empty_matcher():
    schema = SCHEMAS["discrete"]
    matcher = Matcher()
    publication = Publication(schema, [1, 1, 1])
    assert matcher.match_candidates(publication) == ([], 0)
    assert matcher.match_batch([publication, publication]) == [([], 0), ([], 0)]
    first, second = _subscriptions(schema, np.random.default_rng(0), 2)
    matcher.add(first)
    matcher.add(second)
    assert len(matcher) == 2 and first.id in matcher and "missing" not in matcher
    assert matcher.schema is schema
    assert matcher.match_batch([]) == []
    with pytest.raises(ValidationError):
        matcher.add(first)
    assert matcher.remove(first.id) and not matcher.remove(first.id)
    assert len(matcher) == 1


def test_one_schema_per_matcher():
    """Bound to the first subscription's schema: an equal schema object is
    accepted, any other schema is rejected on every entry point."""
    wide, narrow = SCHEMAS["discrete"], Schema.uniform_integer(2, 0, 200)
    narrower = Schema.uniform_integer(3, 0, 100)
    rng = np.random.default_rng(4)
    matcher = Matcher()
    for subscription in _subscriptions(wide, rng, 9):
        matcher.add(subscription)
    twin = Schema.uniform_integer(3, 0, 200)
    assert twin is not wide and twin == wide
    matcher.add(Subscription.whole_space(twin, subscription_id="twin"))
    inside = Publication(twin, [5, 5, 5])
    assert "twin" in [s.id for s in matcher.match_candidates(inside)[0]]
    assert _ids(matcher.match_batch([inside])) == _ids([matcher.match_candidates(inside)])
    for other in (narrow, narrower):
        with pytest.raises(ValidationError):
            matcher.add(Subscription.whole_space(other, subscription_id="odd"))
        foreign = Publication(other, np.zeros(other.m))
        with pytest.raises(ValidationError):
            matcher.match_candidates(foreign)
        with pytest.raises(ValidationError):
            matcher.match_batch([inside, foreign])
    assert "odd" not in matcher


def test_one_budget_bounds_every_batched_workspace(monkeypatch):
    """The matcher and the oracle share one cell budget."""
    schema = SCHEMAS["discrete"]
    rng = np.random.default_rng(6)
    matcher, live = _filled(schema, rng, 20, True)
    publications = _publications(schema, rng, 90, list(live.values()))
    expected = _ids(matcher.match_batch(publications))

    network = BrokerNetwork(grid_topology(2, 2), policy="none", rng=0)
    network.attach_client("c", "B1")
    for subscription in live.values():
        network.subscribe("c", subscription)
    oracle = network._expected_notifications(publications)

    budget = 600
    largest = [0]
    kernel = arena.boxes_meeting

    def watched(signed, limit):
        assert limit.ndim == 2
        largest[0] = max(largest[0], signed.shape[1] * limit.shape[1])
        return kernel(signed, limit)

    monkeypatch.setattr(arena, "_CELL_BUDGET", budget)
    monkeypatch.setattr(arena, "boxes_meeting", watched)
    assert _ids(matcher.match_batch(publications)) == expected
    assert network._expected_notifications(publications) == oracle
    # a chunk's (2m, B', n) test of every row at once, whether or not a
    # large block's rows then run one by one: never above the budget, and
    # the chunks were not degenerate singletons either
    assert budget // 2 < 2 * schema.m * largest[0] <= budget


# ----------------------------------------------------------------------
# The engine: Algorithm 5's gate under churn
# ----------------------------------------------------------------------
def _engine(policy):
    checker = SubsumptionChecker(delta=1e-9, max_iterations=2000, rng=1)
    return MatchingEngine(policy=policy, checker=checker)


def _stream(workload, rng):
    """``(new subscription, new publication)`` makers for a churn loop:
    uniform random boxes, or a scenario workload adapter."""
    if workload == "uniform":
        schema = Schema.uniform_integer(3, 0, 200)
        return (
            lambda: random_subscription(schema, rng, width_fraction=(0.2, 0.7)),
            lambda: random_publication(schema, rng),
        )
    adapter = make_workload(workload, {}, np.random.default_rng(len(workload)))
    return adapter.subscription, adapter.publication


@pytest.mark.parametrize("workload", ("uniform", "bike-rental", "grid"))
@pytest.mark.parametrize("policy", POLICIES)
def test_engine_gate_under_churn(policy, workload):
    """Per publication: the matched set is a brute-force scan of the
    store's pools when an active subscription matched, and empty with
    ``covered_tests == 0`` otherwise; ``match_batch`` equals ``match``
    field for field; the lossless policies notify exactly the live
    subscribers."""
    rng = np.random.default_rng(len(policy))
    new_subscription, new_publication = _stream(workload, rng)
    single, batched = _engine(policy), _engine(policy)
    live = {}
    gated = opened = 0
    for step in range(240):
        roll = rng.random()
        if roll < 0.45 or not live:
            subscription = new_subscription().replace(
                subscription_id=f"s{step:03d}", subscriber=f"c{step % 9}"
            )
            for engine in (single, batched):
                engine.subscribe(subscription)
            live[subscription.id] = subscription
        elif roll < 0.65:
            victim = list(live)[int(rng.integers(len(live)))]
            del live[victim]
            for engine in (single, batched):
                engine.unsubscribe(victim)
        else:
            publications = [new_publication() for _ in range(int(rng.integers(1, 9)))]
            one_by_one = [single.match(p) for p in publications]
            together = batched.match_batch(publications)
            active = single.active_subscriptions
            stored = active + single.covered_subscriptions
            for publication, result, other in zip(publications, one_by_one, together):
                assert (result.matched, result.subscribers) == (
                    other.matched,
                    other.subscribers,
                )
                assert (result.active_tests, result.covered_tests) == (
                    other.active_tests,
                    other.covered_tests,
                )
                assert result.active_tests == len(active)
                if scan(active, publication)[0]:
                    opened += 1
                    assert {s.id for s in result.matched} == {
                        s.id for s in scan(stored, publication)[0]
                    }
                    assert result.covered_tests == len(stored) - len(active)
                else:
                    gated += 1
                    assert result.matched == () and result.covered_tests == 0
                if policy in ("none", "pairwise", "merging"):
                    assert set(result.subscribers) == {
                        s.subscriber for s in scan(list(live.values()), publication)[0]
                    }
    assert single.stats == batched.stats
    assert gated and opened
    if policy != "none":
        assert single.stats["covered_tests"] > 0


@pytest.mark.parametrize("policy", ("none", "pairwise", "merging"))
def test_unsubscribe_keeps_matching_lossless(policy):
    """Unsubscribing most of a redundant set moves subscriptions between
    the store's two pools; the lossless policies keep notifying exactly
    the live subscribers throughout."""
    schema = Schema.uniform_integer(3, 0, 200)
    rng = np.random.default_rng(12)
    engine = _engine(policy)
    live = {}
    for index in range(150):
        subscription = random_subscription(
            schema, rng, width_fraction=(0.2, 0.7)
        ).replace(subscription_id=f"s{index}", subscriber=f"c{index % 11}")
        engine.subscribe(subscription)
        live[subscription.id] = subscription
    merged = len(engine) - len(live)
    order = list(live)
    rng.shuffle(order)
    promoted = 0
    for victim in order[:120]:
        promoted += len(engine.unsubscribe(victim))
        del live[victim]
        if len(live) % 10 == 0:
            for _ in range(5):
                publication = random_publication(schema, rng)
                expected = {
                    s.subscriber for s in scan(list(live.values()), publication)[0]
                }
                assert set(engine.match(publication).subscribers) == expected
    stored = engine.active_subscriptions + engine.covered_subscriptions
    assert {s.id for s in stored if s.subscriber is not None} == set(live)
    # pair-wise covering promotes orphans; merging retracts the merged
    # boxes whose last member left
    if policy == "pairwise":
        assert promoted > 0
    if policy == "merging":
        assert 0 < len(stored) - len(live) < merged


@pytest.mark.parametrize("label", BACKEND_NAMES)
def test_engine_match_batch_equals_sequential(label):
    """Under any label the engine answers like the unlabelled one, and its
    ``match_batch`` equals ``match`` field for field."""
    schema = Schema.uniform_integer(3, 0, 200)
    rng = np.random.default_rng(3)
    subscriptions = [
        random_subscription(schema, rng).replace(
            subscription_id=f"s{i}", subscriber=f"c{i % 5}"
        )
        for i in range(60)
    ]
    publications = [random_publication(schema, rng) for _ in range(40)]
    sequential = MatchingEngine(policy="pairwise", backend=label)
    batched = MatchingEngine(policy="pairwise", backend=label)
    unlabelled = MatchingEngine(policy="pairwise")
    for engine in (sequential, batched, unlabelled):
        for subscription in subscriptions:
            engine.subscribe(subscription)

    def fields(r):
        return (
            tuple(s.id for s in r.matched), r.subscribers, r.active_tests, r.covered_tests
        )

    expected = [fields(unlabelled.match(p)) for p in publications]
    assert [fields(sequential.match(p)) for p in publications] == expected
    assert [fields(r) for r in batched.match_batch(publications)] == expected
    assert sequential.stats == batched.stats == unlabelled.stats
    assert any(matched for matched, *_rest in expected)


@pytest.mark.parametrize("policy", POLICIES)
def test_duplicate_subscribe_rejected_before_mutation(policy):
    """A duplicate id must fail loudly and leave no state behind."""
    schema = Schema.uniform_integer(2, 0, 100)
    engine = _engine(policy)
    subscription = Subscription.from_constraints(
        schema, {"x1": (0, 50), "x2": (0, 50)}, subscription_id="dup", subscriber="amy"
    )
    engine.subscribe(subscription)
    with pytest.raises(ValueError):
        engine.subscribe(subscription)
    assert len(engine) == 1
    engine.unsubscribe("dup")
    assert len(engine) == 0
    publication = Publication.from_values(schema, {"x1": 10, "x2": 10})
    assert engine.match(publication).matched == ()


# ----------------------------------------------------------------------
# Matcher-backend labels: validated, recorded, echoed; they select nothing
# ----------------------------------------------------------------------
LABELLED = {
    "engine": lambda name: MatchingEngine(backend=name),
    "network": lambda name: BrokerNetwork(
        grid_topology(1, 2), matcher_backend=name
    ).close(),
    "sharded": lambda name: ShardedMatchingEngine(shards=1, backend=name),
    "spec": lambda name: dataclasses.replace(
        get_scenario("t0-smoke"), engine_backend=name
    ),
}


@pytest.mark.parametrize("entry", sorted(LABELLED))
def test_labels_are_validated_everywhere(entry):
    build = LABELLED[entry]
    if entry != "sharded":  # a valid label would start a worker process
        for name in BACKEND_NAMES:
            build(name)
    with pytest.raises(ValueError):
        build("quantum")  # the sharded engine rejects it before any spawn


@pytest.mark.parametrize("runner_backend", ("network", "engine"))
def test_every_label_runs_the_same_matcher(runner_backend):
    reports = {
        name: ScenarioRunner(backend=runner_backend).run(
            compile_scenario(
                dataclasses.replace(get_scenario("t0-smoke"), engine_backend=name),
                seed=3,
            )
        )
        for name in BACKEND_NAMES
    }
    reference = reports["linear"]
    for name, report in reports.items():
        assert [(p.name, p.events, p.metrics) for p in report.phases] == [(p.name, p.events, p.metrics) for p in reference.phases], name
        assert report.totals == reference.totals, name
        assert report.engine_backend == name
        assert report.to_dict()["engine_backend"] == name


def test_default_label_keeps_pre_seam_serialization():
    """Specs (and so trace hashes) predating the backend seam are
    unaffected: the default label is omitted from ``to_dict``."""
    payload = get_scenario("t0-smoke").to_dict()
    assert "engine_backend" not in payload
    assert ScenarioSpec.from_dict(payload).engine_backend == "linear"


@pytest.mark.parametrize("label", ("counting", "selectivity"))
def test_spec_round_trip_preserves_the_label(label):
    spec = dataclasses.replace(get_scenario("t0-smoke"), engine_backend=label)
    clone = ScenarioSpec.from_dict(spec.to_dict())
    assert clone.engine_backend == label and clone.to_dict() == spec.to_dict()
    assert clone.to_dict()["engine_backend"] == label


def test_label_changes_trace_hash():
    base = get_scenario("t0-smoke")
    hashes = {
        compile_scenario(
            dataclasses.replace(base, engine_backend=name), seed=11
        ).trace_hash()
        for name in BACKEND_NAMES
    }
    assert len(hashes) == len(BACKEND_NAMES)
    assert compile_scenario(base, seed=11).trace_hash() in hashes


def test_traces_recorded_with_a_label_still_replay(tmp_path, capsys):
    spec = dataclasses.replace(get_scenario("t0-smoke"), engine_backend="selectivity")
    compiled = compile_scenario(spec, seed=11)
    path = tmp_path / "run.jsonl"
    write_trace(path, compiled, backend="engine")
    loaded = read_trace(path)
    assert loaded.spec.engine_backend == "selectivity"
    original = ScenarioRunner(backend="engine").run(compiled)
    replayed = ScenarioRunner(backend="engine").run(loaded)
    assert [(p.name, p.events, p.metrics) for p in replayed.phases] == [(p.name, p.events, p.metrics) for p in original.phases]
    assert replayed.totals == original.totals
    assert replayed.trace_hash == original.trace_hash
    assert scenarios_main(["replay", str(path), "--json"]) == 0
    assert '"engine_backend": "selectivity"' in capsys.readouterr().out


def test_cli_has_no_engine_backend_flag():
    for argv in (["run", "t0-smoke", "--engine-backend", "counting"],
                 ["replay", "t.jsonl", "--engine-backend", "counting"]):
        with pytest.raises(SystemExit):
            scenarios_main(argv)
