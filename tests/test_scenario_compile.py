"""Scenario compilation: same streams, same bytes, at array speed.

``compile_scenario`` generates events in runs on one sampling primitive
(:meth:`Subscription.sample_points`).  Nothing here looks at a clock; the
contract is byte-identity:

* the committed trace-hash table (``tests/data/scenario_compile_hashes.json``,
  captured at the commit *before* compilation was batched) for every
  canonical tier and one spec per workload family, three seeds each;
* ``sample_points`` against the per-attribute ``AttributeDomain.sample``
  loop it replaced, kept here as the reference — values and generator
  state;
* bulk against scalar :class:`Publication` construction;
* for each workload adapter, one run of N against N runs of one;
* the paper families' publications and the steady-state mix, drawn
  through ``scalar_draws``, against the per-point and per-op NumPy loops
  they replaced, kept here as the references, on four bit generators;
* a call-count guard on the shapes that made compilation slow;
* one trace-hash pass per compiled scenario.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.model import (
    Attribute,
    CategoricalDomain,
    DomainError,
    IntegerDomain,
    Publication,
    Schema,
    Subscription,
    TimestampDomain,
    ValidationError,
)
from repro.scenarios import CANONICAL_TIERS, compile_scenario, get_scenario
from repro.scenarios.events import EventAction, make_workload
from repro.scenarios.spec import PhaseKind, PhaseSpec, ScenarioSpec, TopologySpec

HASH_TABLE = Path(__file__).parent / "data" / "scenario_compile_hashes.json"
SEEDS = (0, 7, 20060331)

#: one spec per workload family; the timeline holds every phase kind, a
#: storm of each flavour, and publish runs that cross phase boundaries
FAMILIES = {
    "grid": ({}, TopologySpec(kind="random-tree", size=6)),
    "bike-rental": ({}, TopologySpec(kind="line", size=3)),
    "comparison": ({"m": 8, "domain_size": 10_000}, TopologySpec(kind="star", size=4)),
    "paper-redundant": (
        {"m": 8, "domain_size": 10_000, "k": 20},
        TopologySpec(kind="line", size=1),
    ),
    "paper-noncover": ({"m": 6, "k": 12}, TopologySpec(kind="grid", rows=2, columns=2)),
    "paper-extreme": ({"m": 5, "k": 10}, TopologySpec(kind="line", size=2)),
}


def family_spec(workload: str) -> ScenarioSpec:
    params, topology = FAMILIES[workload]
    return ScenarioSpec(
        name=f"family-{workload}",
        tier="test",
        workload=workload,
        workload_params=params,
        topology=topology,
        clients=12,
        phases=[
            PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 45}),
            PhaseSpec("burst", PhaseKind.PUBLISH_BURST, {"count": 70}),
            PhaseSpec("storm", PhaseKind.UNSUBSCRIBE_STORM, {"fraction": 0.5}),
            PhaseSpec(
                "crowd", PhaseKind.FLASH_CROWD, {"subscriptions": 15, "publications": 30}
            ),
            PhaseSpec("after-crowd", PhaseKind.PUBLISH_BURST, {"count": 10}),
            PhaseSpec(
                "steady",
                PhaseKind.STEADY_STATE,
                {
                    "ops": 160,
                    "publish_weight": 0.6,
                    "subscribe_weight": 0.25,
                    "unsubscribe_weight": 0.15,
                },
            ),
            PhaseSpec("cull", PhaseKind.UNSUBSCRIBE_STORM, {"count": 7}),
            # more victims than subscriptions: drains the live set
            PhaseSpec("drain", PhaseKind.UNSUBSCRIBE_STORM, {"count": 10_000}),
            PhaseSpec(
                "idle",
                PhaseKind.STEADY_STATE,
                # unsubscribes with nothing live fall back to publishing
                {"ops": 12, "publish_weight": 0.0, "subscribe_weight": 0.2,
                 "unsubscribe_weight": 0.8},
            ),
        ],
    )


def hashed_specs():
    specs = {name: get_scenario(name) for name in CANONICAL_TIERS}
    specs.update({f"family-{name}": family_spec(name) for name in FAMILIES})
    return specs


def compute_hash_table():
    """``{spec name: {seed: trace hash}}`` — what the committed table holds."""
    return {
        name: {str(seed): compile_scenario(spec, seed).trace_hash() for seed in SEEDS}
        for name, spec in hashed_specs().items()
    }


class TestTraceHashesUnchanged:
    """Every ``(spec, seed)`` keeps the hash it had before batching."""

    # (importable without the file, so that compute_hash_table can write it)
    TABLE = json.loads(HASH_TABLE.read_text()) if HASH_TABLE.exists() else {}

    def test_table_is_complete(self):
        assert set(self.TABLE) == set(hashed_specs())
        assert all(set(row) == {str(seed) for seed in SEEDS} for row in self.TABLE.values())

    @pytest.mark.parametrize("name", sorted(hashed_specs()))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_hash_equals_committed(self, name, seed):
        compiled = compile_scenario(hashed_specs()[name], seed)
        assert compiled.trace_hash() == self.TABLE[name][str(seed)]

    def test_family_timelines_hold_every_phase_kind_and_action(self):
        for name in FAMILIES:
            spec = family_spec(name)
            assert {phase.kind for phase in spec.phases} == set(PhaseKind)
            actions = {event.action for event in compile_scenario(spec, 0).events}
            assert actions == set(EventAction)


# ----------------------------------------------------------------------
# (b) sample_points == n x sample_point == the per-attribute loop
# ----------------------------------------------------------------------
BIT_GENERATORS = (
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


def states_equal(first, second):
    """``bit_generator.state`` equality (MT19937 keeps its key in an array)."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            states_equal(first[key], second[key]) for key in first
        )
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    return first == second


def reference_sample_points(subscription, rng, count):
    """The loop ``Subscription.sample_point`` used to be, ``count`` times:
    every coordinate of every point through ``AttributeDomain.sample``."""
    points = np.empty((count, subscription.m), dtype=float)
    for point in points:
        for j, attribute in enumerate(subscription.schema.attributes):
            point[j] = attribute.domain.sample(subscription.interval(j), rng)
    return points


def _box(kind):
    integer = IntegerDomain(-1_000, 1_000)
    if kind == "discrete":
        # a timestamp and a categorical axis, a range past 2**32 values
        schema = Schema(
            [
                Attribute("a", integer),
                Attribute("b", CategoricalDomain(tuple("pqrstu"))),
                Attribute(
                    "c",
                    TimestampDomain(
                        "2006-03-31T00:00:00", "2006-03-31T23:59:59", granularity_seconds=60
                    ),
                ),
                Attribute("d", IntegerDomain(-(2**40), 2**40)),
            ]
        )
        lows, highs = schema.full_bounds()
        return Subscription(schema, [-5, 1, lows[2] + 10, lows[3]], [900, 4, highs[2], highs[3]])
    if kind == "single-point":
        schema = Schema(
            [Attribute(name, domain) for name, domain in zip(
                "abc", [integer, CategoricalDomain(tuple("pqr")), integer]
            )]
        )
        return Subscription(schema, [12, 1, -1_000], [12, 1, -1_000])
    if kind == "word-sized":
        # every range at most 2**21 values, the widest exactly that
        schema = Schema(
            [Attribute(name, IntegerDomain(-(2**21), 2**21)) for name in "abcd"]
        )
        return Subscription(schema, [0, 5, -300, 77], [2**21 - 1, 6, 9_699, 77])
    if kind == "far-from-zero":
        # ticks beyond 2**40 on both sides of zero
        schema = Schema(
            [
                Attribute("a", IntegerDomain(2**40, 2**40 + 1_000)),
                Attribute("b", IntegerDomain(-(2**41), -(2**41) + 17)),
                Attribute("c", IntegerDomain(-(2**45), 2**45)),
            ]
        )
        return Subscription(
            schema, [2**40 + 3, -(2**41), -(2**44)], [2**40 + 999, -(2**41) + 17, 2**44]
        )
    assert kind == "fractional"
    schema = Schema([Attribute(name, integer) for name in "abcd"])
    return Subscription(schema, [2.5, -7.5, -0.25, 0.2], [9.5, -0.5, 3.75, 1.9])


BOX_KINDS = ("discrete", "single-point", "fractional", "word-sized", "far-from-zero")


class TestSamplePoints:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("count", (1, 2, 257, 5_000))
    @pytest.mark.parametrize("kind", BOX_KINDS)
    def test_run_equals_runs_of_one_equals_per_attribute_loop(
        self, kind, count, bit_generator
    ):
        box = _box(kind)
        run_rng, single_rng, reference_rng = (
            np.random.Generator(bit_generator(2006)) for _ in range(3)
        )
        for rng in (run_rng, single_rng, reference_rng):
            # leaves half a 64-bit word in the generator's 32-bit buffer
            rng.integers(0, 10, dtype=np.uint32)
        run = box.sample_points(run_rng, count)
        singles = np.array([box.sample_point(single_rng) for _ in range(count)])
        reference = reference_sample_points(box, reference_rng, count)
        assert run.shape == (count, box.m) and run.dtype == np.float64
        assert run.flags.c_contiguous and run.flags.writeable
        assert np.array_equal(run, reference)
        assert np.array_equal(singles, reference)
        state = reference_rng.bit_generator.state
        assert states_equal(run_rng.bit_generator.state, state)
        assert states_equal(single_rng.bit_generator.state, state)
        assert all(box.contains_point(point) for point in run[:50])

    def test_empty_run_draws_nothing(self):
        box = _box("discrete")
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        assert box.sample_points(rng, 0).shape == (0, box.m)
        assert states_equal(rng.bit_generator.state, before)

    def test_discrete_range_without_an_integer_is_rejected(self):
        schema = Schema.uniform_integer(2, -100, 100)
        box = Subscription(schema, [2.25, 0.0], [2.75, 5.0])
        with pytest.raises(DomainError):
            reference_sample_points(box, np.random.default_rng(0), 1)
        with pytest.raises(DomainError):
            box.sample_points(np.random.default_rng(0), 3)

    def test_plan_is_memoised_on_the_box(self):
        box = _box("discrete")
        assert box.sampling_plan() is box.sampling_plan()

    def test_model_does_not_import_core(self):
        import ast

        import repro.model

        for path in Path(repro.model.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert not any(name.startswith("repro.core") for name in names), path


# ----------------------------------------------------------------------
# (c) bulk vs scalar Publication construction
# ----------------------------------------------------------------------
class TestPublicationFromMatrix:
    SCHEMA = Schema(
        [
            Attribute("a", IntegerDomain(0, 100)),
            Attribute("b", IntegerDomain(-1, 1)),
            Attribute("c", CategoricalDomain(("x", "y", "z"))),
        ]
    )
    MATRIX = [[0, -1.0, 0], [100, 1.0, 2], [17, 0.0, 1], [3, float("nan"), 2]]

    def test_equal_to_scalar_construction(self):
        ids = [f"p{index}" for index in range(len(self.MATRIX))]
        publishers = ["c1", None, "c2", "c1"]
        bulk = Publication.from_matrix(self.SCHEMA, self.MATRIX, ids, publishers)
        scalar = [
            Publication(self.SCHEMA, row, publication_id=identifier, publisher=publisher)
            for row, identifier, publisher in zip(self.MATRIX, ids, publishers)
        ]
        assert len(bulk) == len(scalar)
        for one, other in zip(bulk, scalar):
            assert np.array_equal(one.values, other.values, equal_nan=True)
            assert one.values.dtype == other.values.dtype
            assert one.values.shape == other.values.shape
            assert not one.values.flags.writeable and not other.values.flags.writeable
            assert (one.id, one.publisher) == (other.id, other.publisher)
            assert one.metadata == other.metadata == {}
            assert one.schema is other.schema
            assert repr(one.values_list) == repr(other.values_list)
        # NaN-free rows are equal as publications, hash included
        assert bulk[:3] == scalar[:3]
        assert [hash(p) for p in bulk[:3]] == [hash(p) for p in scalar[:3]]

    def test_rows_are_read_only_views_of_one_private_copy(self):
        source = np.array(self.MATRIX[:3], dtype=float)
        bulk = Publication.from_matrix(self.SCHEMA, source)
        base = bulk[0].values.base
        assert base is not None and base is not source
        assert all(publication.values.base is base for publication in bulk)
        source[0, 0] = 55.0
        assert bulk[0].values[0] == 0.0
        with pytest.raises(ValueError):
            bulk[0].values[0] = 1.0
        with pytest.raises(ValueError):
            base[0, 0] = 1.0

    def test_autogenerated_ids_follow_the_scalar_counter(self):
        before = Publication(self.SCHEMA, self.MATRIX[0])
        bulk = Publication.from_matrix(self.SCHEMA, self.MATRIX[:3])
        after = Publication(self.SCHEMA, self.MATRIX[0])
        numbers = [int(p.id.split("-")[1]) for p in (before, *bulk, after)]
        assert numbers == list(range(numbers[0], numbers[0] + 5))

    @pytest.mark.parametrize(
        "bad_row", ([101, 0.0, 1], [5, -1.5, 1], [5, 0.0, 3], [-1, 2.0, 1])
    )
    def test_out_of_domain_row_raises_the_scalar_error(self, bad_row):
        with pytest.raises(ValidationError) as scalar:
            Publication(self.SCHEMA, bad_row)
        with pytest.raises(ValidationError) as bulk:
            Publication.from_matrix(self.SCHEMA, [self.MATRIX[0], bad_row, [999, 9, 9]])
        assert str(bulk.value) == str(scalar.value)

    def test_wrong_arity_raises_the_scalar_error(self):
        with pytest.raises(ValidationError) as scalar:
            Publication(self.SCHEMA, [1, 0.0])
        with pytest.raises(ValidationError) as bulk:
            Publication.from_matrix(self.SCHEMA, [[1, 0.0], [2, 0.5]])
        assert str(bulk.value) == str(scalar.value)
        with pytest.raises(ValidationError):
            Publication.from_matrix(self.SCHEMA, [1, 0.0, 1])

    def test_identifier_and_publisher_counts_must_match(self):
        with pytest.raises(ValidationError):
            Publication.from_matrix(self.SCHEMA, self.MATRIX[:2], ["p1"])
        with pytest.raises(ValidationError):
            Publication.from_matrix(self.SCHEMA, self.MATRIX[:2], None, ["c1"])

    def test_empty_matrix(self):
        assert Publication.from_matrix(self.SCHEMA, np.empty((0, 3))) == []


# ----------------------------------------------------------------------
# (d) one run of N == N runs of one, for every adapter
# ----------------------------------------------------------------------
def _builder(spec, seed):
    from repro.scenarios.events import _EventBuilder, derive_streams
    from repro.utils.rng import ensure_rng

    streams = derive_streams(seed)
    workload_rng = ensure_rng(streams["workload"])
    mix_rng = ensure_rng(streams["mix"])
    workload = make_workload(spec.workload, spec.workload_params, workload_rng)
    return _EventBuilder(spec, workload, mix_rng), workload_rng, mix_rng


def _assert_events_equal(first, second):
    assert len(first) == len(second)
    for one, other in zip(first, second):
        assert (one.seq, one.phase, one.action, one.client, one.subscription_id) == (
            other.seq, other.phase, other.action, other.client, other.subscription_id,
        )
        if one.subscription is not None:
            a, b = one.subscription, other.subscription
            assert (a.id, a.subscriber, a.metadata) == (b.id, b.subscriber, b.metadata)
            assert np.array_equal(a.lows, b.lows) and np.array_equal(a.highs, b.highs)
        else:
            assert other.subscription is None
        if one.publication is not None:
            a, b = one.publication, other.publication
            assert (a.id, a.publisher, a.metadata) == (b.id, b.publisher, b.metadata)
            assert np.array_equal(a.values, b.values)
            assert not a.values.flags.writeable and not b.values.flags.writeable
        else:
            assert other.publication is None


class TestRunsOfOne:
    @pytest.mark.parametrize("workload", sorted(FAMILIES))
    def test_one_run_equals_runs_of_one(self, workload):
        spec = family_spec(workload)
        whole, whole_workload_rng, whole_mix_rng = _builder(spec, 11)
        whole.materialise(whole.schedule())
        single, single_workload_rng, single_mix_rng = _builder(spec, 11)
        for operation in single.schedule():
            single.materialise(iter([operation]))
        _assert_events_equal(whole.events, single.events)
        assert [event.seq for event in whole.events] == list(
            range(1, len(whole.events) + 1)
        )
        assert states_equal(
            whole_workload_rng.bit_generator.state,
            single_workload_rng.bit_generator.state,
        )
        assert states_equal(
            whole_mix_rng.bit_generator.state, single_mix_rng.bit_generator.state
        )
        _assert_events_equal(whole.events, compile_scenario(spec, 11).events)

    @pytest.mark.parametrize("workload", sorted(FAMILIES))
    def test_publication_points_equals_single_publications(self, workload):
        params, _ = FAMILIES[workload]
        run_rng, single_rng = np.random.default_rng(5), np.random.default_rng(5)
        run = make_workload(workload, params, run_rng)
        single = make_workload(workload, params, single_rng)
        # paper adapters draw their first instance on the first publication
        points = run.publication_points(300)
        publications = [single.publication(publisher="c") for _ in range(300)]
        assert points.shape == (300, run.schema.m)
        assert np.array_equal(points, [p.values for p in publications])
        assert {p.publisher for p in publications} == {"c"}
        assert states_equal(run_rng.bit_generator.state, single_rng.bit_generator.state)

    def test_schedule_never_reads_the_workload(self):
        spec = family_spec("grid")
        builder, workload_rng, _ = _builder(spec, 3)
        before = workload_rng.bit_generator.state
        operations = list(builder.schedule())
        assert states_equal(workload_rng.bit_generator.state, before)
        assert len(operations) == compile_scenario(spec, 3).event_count
        assert builder.events == []


def reference_paper_points(adapter, count):
    """The loop ``_PaperFigureWorkload.publication_points`` used to be: per
    point, one NumPy ``random()`` choosing the box, then ``sample_point``."""
    if adapter._base is None:
        adapter._refill()
    rng = adapter._rng
    whole_space = Subscription.whole_space(adapter.schema)
    points = np.empty((count, adapter.schema.m), dtype=float)
    for point in points:
        if rng.random() < adapter._match_probability:
            point[:] = adapter._base.sample_point(rng)
        else:
            point[:] = whole_space.sample_point(rng)
    return points


def _reference_builder_class():
    from repro.scenarios.events import _EventBuilder

    class ReferenceBuilder(_EventBuilder):
        """Pass 1 with the steady-state loop it used to have: per op, one
        NumPy ``random()`` roll, then a run of one."""

        def _steady_state(self, phase, params):
            weights = np.array(
                [
                    float(params.get("publish_weight", 0.6)),
                    float(params.get("subscribe_weight", 0.3)),
                    float(params.get("unsubscribe_weight", 0.1)),
                ]
            )
            weights = weights / weights.sum()
            publish_below = float(weights[0])
            subscribe_below = float(weights[0] + weights[1])
            for _ in range(int(params.get("ops", 0))):
                roll = float(self.mix.random())
                if roll < publish_below:
                    yield from self._publishes(phase, 1)
                elif roll < subscribe_below:
                    yield from self._subscribes(phase, 1)
                elif self._live:
                    yield from self._unsubscribes(phase, 1)
                else:
                    yield from self._publishes(phase, 1)

    return ReferenceBuilder


class TestScalarDrawSites:
    """The two loops that draw through ``scalar_draws`` against the NumPy
    loops they replaced: values and generator state, with and without
    half a word in the 32-bit buffer, on every bit generator (a
    ``PCG64`` is drawn from its words, the others by NumPy's calls)."""

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", (0, 1))
    @pytest.mark.parametrize(
        "workload", ("paper-redundant", "paper-noncover", "paper-extreme")
    )
    def test_paper_publications_equal_the_per_point_loop(
        self, workload, buffered, bit_generator
    ):
        params, _ = FAMILIES[workload]
        rngs = [np.random.Generator(bit_generator(41)) for _ in range(2)]
        adapters = [make_workload(workload, params, rng) for rng in rngs]
        for rng in rngs:
            rng.integers(0, 10, size=buffered, dtype=np.uint32)
        # runs of several lengths, a new instance between two of them
        for count in (1, 2, 0, 333, 40):
            points = adapters[0].publication_points(count)
            reference = reference_paper_points(adapters[1], count)
            assert points.shape == (count, adapters[0].schema.m)
            assert points.dtype == np.float64 and points.flags.c_contiguous
            assert np.array_equal(points, reference)
            assert states_equal(*(rng.bit_generator.state for rng in rngs))
            if count == 333:
                for adapter in adapters:
                    for _ in range(len(adapter._pool) - adapter._next + 1):
                        adapter.subscription()
        assert adapters[0]._base.same_box(adapters[1]._base)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", (0, 1))
    @pytest.mark.parametrize("workload", ("grid", "paper-noncover"))
    def test_steady_state_equals_the_per_op_loop(
        self, workload, buffered, bit_generator
    ):
        from repro.scenarios.events import _EventBuilder

        spec = family_spec(workload)
        schedules, mixes = [], []
        for builder_class in (_EventBuilder, _reference_builder_class()):
            mix = np.random.Generator(bit_generator(43))
            mix.integers(0, 10, size=buffered, dtype=np.uint32)
            workload = make_workload(
                spec.workload, spec.workload_params, np.random.default_rng(0)
            )
            builder = builder_class(spec, workload, mix)
            schedules.append(list(builder.schedule()))
            mixes.append(mix)
        assert schedules[0] == schedules[1]
        # the steady phases hold every action, and the fallback publish
        steady = [op for op in schedules[0] if op[0] in ("steady", "idle")]
        assert {op[1] for op in steady} == set(EventAction)
        assert states_equal(mixes[0].bit_generator.state, mixes[1].bit_generator.state)


def _reference_job_publication(workload, rng):
    """``GridWorkload.job_publication`` before jobs came from one box: each
    attribute its own scalar draw, decoded, then re-encoded by ``from_values``."""
    from repro.workloads.grid import SERVICE_DOMAINS

    time_domain = workload.schema.domain("time")
    values = {
        "CPUcycles": int(rng.integers(500, 10_001)),
        "disk": int(rng.integers(1, 1_001)),
        "memory": int(rng.integers(1, 65)),
        "service": SERVICE_DOMAINS[int(rng.integers(0, len(SERVICE_DOMAINS)))],
        "time": time_domain.decode(
            float(
                rng.integers(
                    int(time_domain.lower_bound), int(time_domain.upper_bound) + 1
                )
            )
        ),
    }
    return Publication.from_values(workload.schema, values)


def _reference_bike_publication(workload, rng):
    """``BikeRentalWorkload.publication`` before the announcement box."""
    from repro.workloads.bike_rental import BRANDS

    schema = workload.schema
    date = schema.domain("date")
    values = {
        "bID": int(rng.integers(1, int(schema.domain("bID").upper_bound) + 1)),
        "size": int(rng.integers(14, 24)),
        "brand": BRANDS[int(rng.integers(0, len(BRANDS)))],
        "rpID": int(rng.integers(1, int(schema.domain("rpID").upper_bound) + 1)),
        "date": date.decode(
            float(rng.integers(int(date.lower_bound), int(date.upper_bound) + 1))
        ),
    }
    return Publication.from_values(schema, values)


class TestDecodeEncodeRoundTripGone:
    """Jobs and announcements used to be drawn as decoded values (labels,
    ``datetime``s) and encoded again; they are now drawn encoded.  Equal
    values pin ``encode(decode(x)) == x`` on those axes."""

    def test_grid_jobs_unchanged(self):
        from repro.workloads.grid import GridWorkload

        workload = GridWorkload(rng=np.random.default_rng(9))
        reference_rng = np.random.default_rng(9)
        jobs = [workload.job_publication(job_id="j") for _ in range(40)]
        jobs += workload.job_publications(60)
        for job in jobs:
            reference = _reference_job_publication(workload, reference_rng)
            assert np.array_equal(job.values, reference.values)
        assert [job.publisher for job in jobs[38:42]] == ["j", "j", "job-1", "job-2"]

    def test_bike_announcements_unchanged(self):
        from repro.workloads.bike_rental import BikeRentalWorkload, bike_rental_schema

        schema = bike_rental_schema(posts=250, bikes=3_000)
        workload = BikeRentalWorkload(schema=schema, rng=np.random.default_rng(9))
        reference_rng = np.random.default_rng(9)
        BikeRentalWorkload(schema=schema, rng=reference_rng)  # draws the hotspots
        announcements = [workload.publication(publisher="r") for _ in range(40)]
        announcements += workload.publications(60)
        for announcement in announcements:
            reference = _reference_bike_publication(workload, reference_rng)
            assert np.array_equal(announcement.values, reference.values)
        assert [a.publisher for a in announcements[39:41]] == ["r", "post-1"]


# ----------------------------------------------------------------------
# (e) count guard: what made compilation slow does not come back
# ----------------------------------------------------------------------
class CountingGenerator(np.random.Generator):
    """A generator that counts its ``integers``, ``random`` and ``uniform``
    calls (all instances)."""

    calls = 0

    def integers(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        CountingGenerator.calls += 1
        return super().uniform(*args, **kwargs)


def counting_rng(source):
    assert isinstance(source, np.random.SeedSequence)
    return CountingGenerator(np.random.PCG64(source))


class TestCallCounts:
    """Checked against the mutations they guard: restoring per-publication
    scalar draws makes the burst tests count thousands of calls, so does
    restoring the per-op NumPy calls of the steady state, and restoring
    ``list(self._live)`` per victim fails the storm test."""

    @staticmethod
    def _burst(count):
        return ScenarioSpec(
            name="guard-burst",
            workload="grid",
            topology=TopologySpec(kind="random-tree", size=5),
            clients=16,
            phases=[PhaseSpec("burst", PhaseKind.PUBLISH_BURST, {"count": count})],
        )

    @staticmethod
    def _compiled_calls(monkeypatch, spec, size):
        """Generator calls of compiling ``spec`` on counting generators."""
        from repro.scenarios import events

        monkeypatch.setattr(events, "ensure_rng", counting_rng)
        monkeypatch.setattr(CountingGenerator, "calls", 0)
        compiled = compile_scenario(spec, 4)
        calls = CountingGenerator.calls
        monkeypatch.undo()
        assert compiled.event_count == size
        # and the counting generators drew what the plain ones draw
        assert compiled.trace_hash() == compile_scenario(spec, 4).trace_hash()
        return calls

    def test_publish_burst_makes_a_constant_number_of_integers_calls(
        self, monkeypatch
    ):
        counts = [
            self._compiled_calls(monkeypatch, self._burst(size), size)
            for size in (1_000, 3_000)
        ]
        # the tree's shape, the clients of the run, the points of the run
        assert counts[0] == counts[1] <= 8

    def test_paper_family_burst_makes_a_constant_number_of_generator_calls(
        self, monkeypatch
    ):
        def burst(count):
            return ScenarioSpec(
                name="guard-paper-burst",
                workload="paper-redundant",
                workload_params={"m": 8, "domain_size": 10_000, "k": 20},
                topology=TopologySpec(kind="line", size=1),
                clients=16,
                phases=[PhaseSpec("burst", PhaseKind.PUBLISH_BURST, {"count": count})],
            )

        counts = [
            self._compiled_calls(monkeypatch, burst(size), size)
            for size in (1_000, 3_000)
        ]
        # one instance's draws, the clients of the run; a random() and a
        # sample_point per publication made 3 000 more at the parent
        assert counts[0] == counts[1] < 100

    def test_steady_state_makes_a_constant_number_of_generator_calls(self):
        from repro.scenarios.events import _EventBuilder

        def steady(ops):
            return ScenarioSpec(
                name="guard-steady",
                workload="grid",
                clients=16,
                phases=[
                    PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 20}),
                    PhaseSpec(
                        "steady",
                        PhaseKind.STEADY_STATE,
                        {"ops": ops, "publish_weight": 0.5, "subscribe_weight": 0.3,
                         "unsubscribe_weight": 0.2},
                    ),
                ],
            )

        counts = []
        for ops in (1_000, 3_000):
            spec = steady(ops)
            workload = make_workload(spec.workload, {}, np.random.default_rng(0))
            CountingGenerator.calls = 0
            # pass 1 reads the mix stream only
            mix = CountingGenerator(np.random.PCG64(4))
            schedule = list(_EventBuilder(spec, workload, mix).schedule())
            counts.append(CountingGenerator.calls)
            assert len(schedule) == 20 + ops
            assert {action for _, action, _, _ in schedule} == set(EventAction)
        # the ramp's clients; a roll and a pick per op made 2 000 and 6 000
        # more at the parent
        assert counts[0] == counts[1] == 1

    def test_unsubscribe_never_copies_the_live_set(self, monkeypatch):
        from repro.scenarios import events

        copied = []

        def recording_list(*args):
            copied.append(len(args[0]) if args and hasattr(args[0], "__len__") else 0)
            return list(*args)

        monkeypatch.setattr(events, "list", recording_list, raising=False)
        spec = ScenarioSpec(
            name="guard-storm",
            workload="bike-rental",
            clients=16,
            phases=[
                PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 400}),
                PhaseSpec("storm", PhaseKind.UNSUBSCRIBE_STORM, {"fraction": 0.75}),
                PhaseSpec(
                    "steady",
                    PhaseKind.STEADY_STATE,
                    {"ops": 200, "publish_weight": 0.0, "subscribe_weight": 0.1,
                     "unsubscribe_weight": 0.9},
                ),
            ],
        )
        compiled = compile_scenario(spec, 4)
        cancelled = sum(e.action is EventAction.UNSUBSCRIBE for e in compiled.events)
        assert cancelled > 350
        # runs are listed once each (three here plus the steady state's
        # short ones); a copy of the live set per victim would add one
        # ``list`` call of 100+ ids for each of the 300 storm victims
        assert len(copied) < cancelled
        assert sum(size >= 100 for size in copied) <= 2


# ----------------------------------------------------------------------
# (f) a compiled scenario is hashed once
# ----------------------------------------------------------------------
class TestTraceHashOnce:
    def test_compiled_scenarios_are_immutable(self):
        import dataclasses

        compiled = compile_scenario(family_spec("grid"), 2)
        assert isinstance(compiled.events, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.events = ()

    def test_the_hash_is_computed_on_the_first_call_only(self, monkeypatch):
        from repro.scenarios import events

        dumps = []
        real_dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            dumps.append(1)
            return real_dumps(*args, **kwargs)

        monkeypatch.setattr(events.json, "dumps", counting_dumps)
        compiled = compile_scenario(family_spec("grid"), 2)
        # compiling does not hash
        assert dumps == []
        digest = compiled.trace_hash()
        assert len(dumps) == compiled.event_count + 1
        dumps.clear()
        assert compiled.trace_hash() == digest
        assert dumps == []
