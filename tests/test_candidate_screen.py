"""The candidate screen: ``SubsumptionChecker`` vs Algorithm 4 over every row.

Wherever MCS applies the checker drops the candidates that share no point
with ``s`` *before* it builds a conflict table
(:meth:`CandidateSet.meeting`).  The claim is that this is MCS pass 1,
hoisted: same answer, same minimized cover set, same ``rho_w`` and
budget, the same guesses drawn from the same stream — only a smaller
``k`` for every stage to pay for, and one label shift between two
draw-free definite NOs (``empty_mcs`` / ``polyhedron_witness``).

The unscreened pipeline does not exist in ``src/`` any more; the
reference here is Algorithm 4 written out from the public stages
(``ConflictTable`` + ``minimized_cover_set`` over all rows, …).  Ground
truth, where a verdict is deterministic, is tick enumeration on tiny
domains and :func:`exact_group_cover`.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import CandidateSet, SubscriptionArena, boxes_meeting
from repro.core.conflict_table import ConflictTable
from repro.core.decisions import detect_pairwise_cover, detect_polyhedron_witness
from repro.core.error_model import required_iterations
from repro.core.exact import exact_group_cover
from repro.core.mcs import minimized_cover_set
from repro.core.results import Answer, DecisionMethod
from repro.core.rspc import RSPCOutcome, run_rspc
from repro.core.subsumption import SubsumptionChecker
from repro.core.witness import estimate_smallest_witness
from repro.model import (
    CategoricalDomain,
    ContinuousDomain,
    IntegerDomain,
    Schema,
    Subscription,
)

DELTA = 1e-4
#: crosses the RSPC batch size (256) and the first draw-ahead group
MAX_ITERATIONS = 700

#: the two definite NOs that consume no draw; the screen may turn one
#: into the other (see the module docstring of ``repro.core.subsumption``)
_DRAW_FREE_NO = {DecisionMethod.EMPTY_MCS, DecisionMethod.POLYHEDRON_WITNESS}


# ----------------------------------------------------------------------
# The unscreened reference
# ----------------------------------------------------------------------
def reference_check(
    subscription,
    candidates,
    rng,
    *,
    use_mcs=True,
    use_fast_decisions=True,
    delta=DELTA,
    max_iterations=MAX_ITERATIONS,
):
    """Algorithm 4 against *every* candidate, from the public stages."""
    candidates = list(candidates)
    verdict = SimpleNamespace(
        answer=Answer.NOT_COVERED,
        method=None,
        covering_id=None,
        kept_ids=None,
        rho_w=None,
        theoretical=None,
        iterations=0,
        witness=None,
    )
    table = ConflictTable(subscription, candidates)
    if use_fast_decisions:
        pairwise = detect_pairwise_cover(table)
        if pairwise is not None:
            verdict.answer = Answer.COVERED
            verdict.method = DecisionMethod.PAIRWISE_COVER
            verdict.covering_id = candidates[pairwise.covering_row].id
            return verdict
        if detect_polyhedron_witness(table) is not None:
            verdict.method = DecisionMethod.POLYHEDRON_WITNESS
            return verdict
    if use_mcs:
        kept_rows = minimized_cover_set(table).kept_rows
        if not kept_rows:
            verdict.method = DecisionMethod.EMPTY_MCS
            return verdict
        verdict.kept_ids = [candidates[row].id for row in kept_rows]
    else:
        kept_rows = tuple(range(len(candidates)))
    verdict.rho_w = estimate_smallest_witness(table, list(kept_rows)).rho_w
    verdict.theoretical = (
        required_iterations(delta, verdict.rho_w) if verdict.rho_w > 0 else np.inf
    )
    rspc = run_rspc(
        subscription,
        [candidates[row] for row in kept_rows],
        rho_w=verdict.rho_w,
        delta=delta,
        rng=rng,
        max_iterations=max_iterations,
        bounds=table.signed_bounds(kept_rows),
    )
    verdict.iterations = rspc.iterations_performed
    if rspc.outcome is RSPCOutcome.WITNESS_FOUND:
        verdict.method = DecisionMethod.POINT_WITNESS
        verdict.witness = rspc.witness_point
    else:
        verdict.answer = Answer.PROBABLY_COVERED
        verdict.method = DecisionMethod.RSPC_EXHAUSTED
    return verdict


def _checker(seed, **kwargs):
    kwargs.setdefault("delta", DELTA)
    kwargs.setdefault("max_iterations", MAX_ITERATIONS)
    return SubsumptionChecker(rng=np.random.default_rng(seed), **kwargs)


def assert_same_decision(result, reference, candidates, screened=True):
    """``result`` (the checker's) is ``reference`` in everything observable."""
    candidates = list(candidates)
    assert result.answer == reference.answer
    if result.method != reference.method:
        # one draw-free definite NO for another, and only this way round:
        # Corollary 3 fires on the screened table where the full one needed
        # the MCS rules, or the screen left nothing where Corollary 3 fired
        assert screened
        assert {result.method, reference.method} == _DRAW_FREE_NO
        if result.method is DecisionMethod.EMPTY_MCS:
            assert result.details["screened_size"] == 0
    assert result.original_set_size == len(candidates)
    if reference.covering_id is None:
        assert result.covering_row is None
    else:
        assert candidates[result.covering_row].id == reference.covering_id
    kept_rows = result.details.get("mcs_kept_rows")
    if reference.kept_ids is None:
        assert kept_rows is None
    else:
        assert [candidates[row].id for row in kept_rows] == reference.kept_ids
        assert all(type(row) is int for row in kept_rows)
        assert result.reduced_set_size == len(reference.kept_ids)
    if reference.rho_w is None:
        assert result.iterations_performed == 0
    else:
        assert result.rho_w == reference.rho_w
        assert result.theoretical_iterations == reference.theoretical
    assert result.iterations_performed == reference.iterations
    if reference.witness is None:
        assert result.witness_point is None
    else:
        assert np.array_equal(result.witness_point, reference.witness)


def assert_screen_is_neutral(subscription, candidates, seed=5, **stages):
    """Screened check == unscreened reference, generator state included."""
    checker = _checker(seed, **stages)
    reference_rng = np.random.default_rng(seed)
    result = checker.check(subscription, candidates)
    reference = reference_check(subscription, candidates, reference_rng, **stages)
    assert_same_decision(result, reference, candidates)
    assert checker._rng.bit_generator.state == reference_rng.bit_generator.state
    return result


# ----------------------------------------------------------------------
# Instances: a box in the middle of the space, candidates that meet it
# (slabs cut from it, partial overlaps, boxes inside it) and candidates
# that do not (beyond it on one attribute)
# ----------------------------------------------------------------------
def _discrete_schema():
    return Schema.uniform_integer(4, 0, 200, name="discrete")


def _mixed_schema():
    return Schema(
        [
            ("a", IntegerDomain(0, 200)),
            ("b", ContinuousDomain(0.0, 50.0, resolution=1e-6)),
            ("c", CategoricalDomain([f"v{i}" for i in range(12)])),
            ("d", IntegerDomain(-40, 40)),
        ],
        name="mixed",
    )


def _continuous_schema():
    return Schema(
        [(f"c{i}", ContinuousDomain(0.0, 10.0, resolution=1e-6)) for i in range(3)],
        name="continuous",
    )


SCHEMAS = {
    "discrete": _discrete_schema,
    "mixed": _mixed_schema,
    "continuous": _continuous_schema,
}


def _box(schema, lows, highs, fractional, rng):
    """A subscription over ``[lows, highs]``: ticks on the discrete axes, or
    — ``fractional`` — bounds pushed up to 0.95 *outwards* off them, so the
    box holds exactly the same ticks while its raw bounds reach almost to
    the next one (two such boxes can overlap without sharing a tick)."""
    lows = np.array(lows, dtype=float)
    highs = np.array(highs, dtype=float)
    discrete = schema.vectors.discrete
    lows[discrete] = np.round(lows[discrete])
    highs[discrete] = np.maximum(np.round(highs[discrete]), lows[discrete])
    if fractional:
        lows[discrete] -= rng.uniform(0.0, 0.95, int(discrete.sum()))
        highs[discrete] += rng.uniform(0.0, 0.95, int(discrete.sum()))
    return Subscription(schema, lows, highs)


def _subject(schema, rng, fractional):
    domain_lows, domain_highs = schema.full_bounds()
    extent = domain_highs - domain_lows
    lows = domain_lows + extent * rng.uniform(0.30, 0.42, schema.m)
    highs = domain_lows + extent * rng.uniform(0.58, 0.70, schema.m)
    return _box(schema, lows, highs, fractional, rng)


def _meeting_candidates(schema, subject, rng, count, fractional):
    """``count`` candidates that share a point with ``subject``."""
    domain_lows, domain_highs = schema.full_bounds()
    extent = domain_highs - domain_lows
    candidates = []
    while len(candidates) < count:
        kind = rng.integers(0, 4)
        if kind == 0:  # slabs of the subject along one axis, widened elsewhere
            axis = int(rng.integers(0, schema.m))
            pieces = int(rng.integers(2, 5))
            cuts = np.linspace(subject.lows[axis], subject.highs[axis], pieces + 1)
            skip = int(rng.integers(0, pieces + 2))  # sometimes leaves a gap
            for piece in range(pieces):
                if piece == skip:
                    continue
                lows = subject.lows - extent * rng.uniform(0.0, 0.1, schema.m)
                highs = subject.highs + extent * rng.uniform(0.0, 0.1, schema.m)
                lows[axis], highs[axis] = cuts[piece], cuts[piece + 1]
                candidates.append(_box(schema, lows, highs, fractional, rng))
        elif kind == 1:  # inside the subject
            span = subject.highs - subject.lows
            lows = subject.lows + span * rng.uniform(0.1, 0.4, schema.m)
            highs = subject.highs - span * rng.uniform(0.1, 0.4, schema.m)
            candidates.append(_box(schema, lows, highs, fractional, rng))
        else:  # partial overlap around a point of the subject
            anchor = rng.uniform(subject.lows, subject.highs)
            lows = anchor - extent * rng.uniform(0.02, 0.3, schema.m)
            highs = anchor + extent * rng.uniform(0.02, 0.3, schema.m)
            candidates.append(_box(schema, lows, highs, fractional, rng))
    return candidates[:count]


def _disjoint_candidates(schema, subject, rng, count, fractional):
    """``count`` candidates beyond ``subject`` on one attribute each — from
    the very next tick (``touching + 1``) to far away."""
    domain_lows, domain_highs = schema.full_bounds()
    extent = domain_highs - domain_lows
    discrete = schema.vectors.discrete
    candidates = []
    for _ in range(count):
        axis = int(rng.integers(0, schema.m))
        anchor = rng.uniform(domain_lows, domain_highs)
        lows = anchor - extent * rng.uniform(0.02, 0.3, schema.m)
        highs = anchor + extent * rng.uniform(0.02, 0.3, schema.m)
        step = 1.0 if discrete[axis] else extent[axis] * 1e-3
        gap = step if rng.random() < 0.25 else step + extent[axis] * rng.uniform(0, 0.2)
        width = extent[axis] * rng.uniform(0.0, 0.2)
        if rng.random() < 0.5:
            start = np.floor(subject.highs[axis]) if discrete[axis] else subject.highs[axis]
            lows[axis], highs[axis] = start + gap, start + gap + width
        else:
            start = np.ceil(subject.lows[axis]) if discrete[axis] else subject.lows[axis]
            lows[axis], highs[axis] = start - gap - width, start - gap
        candidates.append(_box(schema, lows, highs, fractional, rng))
    return candidates


def make_instance(schema, rng, k, share, fractional):
    """``(subject, candidates)`` with ``round(share * k)`` disjoint candidates."""
    subject = _subject(schema, rng, fractional)
    far = int(round(share * k))
    candidates = _meeting_candidates(
        schema, subject, rng, k - far, fractional
    ) + _disjoint_candidates(schema, subject, rng, far, fractional)
    order = rng.permutation(len(candidates))
    return subject, [candidates[i] for i in order]


def _sweep():
    for name, k, share, fractional in itertools.product(
        SCHEMAS, (1, 8, 75, 353), (0.0, 0.5, 0.97, 1.0), (False, True)
    ):
        for variant in range(2):
            yield name, k, share, fractional, variant


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
class TestScreenIsMcsPassOneHoisted:
    def test_seeded_sweep_equals_the_unscreened_reference(self):
        methods = {}
        relabelled = screened_out = fractional_draws = 0
        for name, k, share, fractional, variant in _sweep():
            schema = SCHEMAS[name]()
            rng = np.random.default_rng([variant, k, int(share * 100), fractional])
            subject, candidates = make_instance(schema, rng, k, share, fractional)
            result = assert_screen_is_neutral(subject, candidates, seed=variant)
            # the instance is what it says it is
            meeting = [c for c in candidates if _share_a_point(subject, c)]
            assert len(meeting) == k - int(round(share * k))
            assert result.details["screened_size"] == len(meeting)
            methods[result.method] = methods.get(result.method, 0) + 1
            screened_out += len(candidates) - len(meeting)
            fractional_draws += fractional and result.iterations_performed > 0
            # the label shift is observed, not just allowed
            reference = reference_check(
                subject, candidates, np.random.default_rng(variant)
            )
            relabelled += result.method != reference.method
        # every stage of Algorithm 4 decided something somewhere
        assert set(methods) == {
            DecisionMethod.PAIRWISE_COVER,
            DecisionMethod.POLYHEDRON_WITNESS,
            DecisionMethod.EMPTY_MCS,
            DecisionMethod.POINT_WITNESS,
            DecisionMethod.RSPC_EXHAUSTED,
        }, methods
        assert relabelled and screened_out and fractional_draws

    @pytest.mark.parametrize("use_fast_decisions", [True, False])
    def test_without_fast_decisions_only_mcs_sees_the_smaller_set(
        self, use_fast_decisions
    ):
        for name, fractional in itertools.product(SCHEMAS, (False, True)):
            schema = SCHEMAS[name]()
            for variant in range(4):
                rng = np.random.default_rng([7, variant, fractional])
                subject, candidates = make_instance(schema, rng, 40, 0.8, fractional)
                assert_screen_is_neutral(
                    subject,
                    candidates,
                    seed=variant,
                    use_fast_decisions=use_fast_decisions,
                )

    def test_two_checks_in_sequence_share_one_stream(self):
        """The second check's draws start where the reference's would."""
        schema = _discrete_schema()
        rng = np.random.default_rng(11)
        checker = _checker(3)
        reference_rng = np.random.default_rng(3)
        draws = 0
        for _ in range(12):
            subject, candidates = make_instance(schema, rng, 30, 0.7, True)
            result = checker.check(subject, candidates)
            reference = reference_check(subject, candidates, reference_rng)
            assert_same_decision(result, reference, candidates)
            assert checker._rng.bit_generator.state == reference_rng.bit_generator.state
            draws += result.iterations_performed
        assert draws > 0

    def test_touching_at_a_bound_meets_one_tick_further_does_not(self):
        schema = _discrete_schema()
        subject = Subscription(schema, [50, 50, 50, 50], [100, 100, 100, 100])
        wide = ([0, 0, 0], [200, 200, 200])
        touching = [
            Subscription(schema, [100, *wide[0]], [150, *wide[1]]),
            Subscription(schema, [0, *wide[0]], [50, *wide[1]]),
            Subscription(schema, [100.4, *wide[0]], [150, *wide[1]]),  # tick 101 on
            Subscription(schema, [99.6, *wide[0]], [150, *wide[1]]),  # tick 100 on
            Subscription(schema, [0, *wide[0]], [49.6, *wide[1]]),  # up to tick 49
        ]
        snapshot = CandidateSet(touching)
        assert snapshot.meeting(subject).tolist() == [True, True, False, True, False]
        assert_screen_is_neutral(subject, touching)
        # continuous axes are closed intervals: equal bounds meet
        schema = _continuous_schema()
        subject = Subscription(schema, [2.0, 2.0, 2.0], [4.0, 4.0, 4.0])
        boxes = [
            Subscription(schema, [4.0, 0.0, 0.0], [6.0, 10.0, 10.0]),
            Subscription(schema, [np.nextafter(4.0, 5.0), 0.0, 0.0], [6.0, 10.0, 10.0]),
            Subscription(schema, [0.0, 0.0, 0.0], [2.0, 10.0, 10.0]),
            Subscription(schema, [0.0, 0.0, 0.0], [np.nextafter(2.0, 1.0), 10.0, 10.0]),
        ]
        assert CandidateSet(boxes).meeting(subject).tolist() == [True, False, True, False]
        assert_screen_is_neutral(subject, boxes)

    def test_negative_zero_is_zero(self):
        """``ceil(-0.5)``, ``-floor(0.4)`` and a negated upper bound of ``0``
        are all ``-0.0`` on the signed layout; they must compare as ``0``."""
        schema = Schema([("n", IntegerDomain(-5, 5)), ("x", ContinuousDomain(-1.0, 1.0))])
        subject = Subscription(schema, [0, 0.0], [0, 0.0])
        around = Subscription(schema, [-0.5, -0.0], [0.4, 0.0])  # the tick 0, the point 0
        beside = Subscription(schema, [0.5, 0.0], [3, 0.0])  # ticks 1..3
        snapshot = CandidateSet([around, beside])
        assert snapshot.signed[:, 0].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert np.signbit(snapshot.signed[:, 0]).tolist() == [True, True, True, True]
        assert snapshot.meeting(subject).tolist() == [True, False]
        result = assert_screen_is_neutral(subject, [beside, around])
        assert result.method is DecisionMethod.PAIRWISE_COVER
        assert result.covering_row == 1
        assert CandidateSet([subject]).meeting(around).tolist() == [True]

    def test_degenerate_boxes(self):
        """``low == high``: single ticks and single points, on either side."""
        for name in SCHEMAS:
            schema = SCHEMAS[name]()
            for variant in range(6):
                rng = np.random.default_rng([13, variant])
                subject, candidates = make_instance(schema, rng, 24, 0.5, variant % 2)
                pinched = int(rng.integers(0, schema.m))
                if variant < 3:  # the subject is one value on an attribute
                    lows, highs = subject.lows.copy(), subject.highs.copy()
                    if schema.vectors.discrete[pinched]:
                        lows[pinched] = np.ceil(lows[pinched])
                    highs[pinched] = lows[pinched]
                    subject = Subscription(schema, lows, highs)
                else:  # a third of the candidates are (tick-less ones too)
                    for i in range(0, len(candidates), 3):
                        lows = candidates[i].lows.copy()
                        lows[pinched] = candidates[i].highs[pinched]
                        candidates[i] = Subscription(schema, lows, candidates[i].highs)
                assert_screen_is_neutral(subject, candidates, seed=variant)
        # the corner the closed-box conflict rule exists for: two
        # candidates either side of a single-point continuous range each
        # own a conflict-free entry (the point lies strictly between them)
        schema = _continuous_schema()
        subject = Subscription(schema, [5.0, 0.0, 0.0], [5.0, 10.0, 10.0])
        sides = [
            Subscription(schema, [6.0, 0.0, 0.0], [7.0, 10.0, 10.0]),
            Subscription(schema, [1.0, 0.0, 0.0], [2.0, 10.0, 10.0]),
        ]
        table = ConflictTable(subject, sides)
        assert table.conflict_free_counts().tolist() == [1, 1]
        assert table._conflict_free_counts_scalar().tolist() == [1, 1]
        result = assert_screen_is_neutral(subject, sides)
        assert result.method is DecisionMethod.EMPTY_MCS
        assert result.iterations_performed == 0

    def test_infinite_bounds(self):
        inf = np.inf
        schema = Schema(
            [
                ("u", ContinuousDomain(-inf, inf)),
                ("v", ContinuousDomain(-inf, inf)),
                ("n", IntegerDomain(0, 100)),
            ],
            name="unbounded",
        )
        subject = Subscription(schema, [-inf, 0.0, 10.2], [5.0, inf, 90.0])
        candidates = [
            Subscription(schema, [-inf, -5.0, 0.0], [3.0, inf, 50.5]),
            Subscription(schema, [3.0, 0.0, 40.0], [inf, 7.5, 100.0]),
            Subscription(schema, [5.5, 7.5, 20.0], [inf, inf, 60.0]),  # beyond u
            Subscription(schema, [-inf, -inf, 0.0], [inf, -1.0, 100.0]),  # below v
            Subscription(schema, [-inf, 7.5, 90.3], [inf, inf, 100.0]),  # tick 91 on
            Subscription(schema, [-inf, 7.5, 50.0], [5.0, inf, 90.0]),
        ]
        assert CandidateSet(candidates).meeting(subject).tolist() == [
            True,
            True,
            False,
            False,
            False,
            True,
        ]
        for seed in range(4):
            assert_screen_is_neutral(subject, candidates, seed=seed)
        everything = Subscription(schema, [-inf, -inf, 0.0], [inf, inf, 100.0])
        result = assert_screen_is_neutral(subject, candidates + [everything])
        assert result.method is DecisionMethod.PAIRWISE_COVER
        assert result.covering_row == len(candidates)


def _share_a_point(first, second):
    """Independent box-intersection test: per attribute, ticks or overlap."""
    for j, attribute in enumerate(first.schema.attributes):
        low = max(first.lows[j], second.lows[j])
        high = min(first.highs[j], second.highs[j])
        if attribute.domain.is_discrete:
            low, high = np.ceil(low), np.floor(high)
        if low > high:
            return False
    return True


def _covers_every_tick(coverer, subject):
    """Pair-wise cover on an all-discrete schema, tick for tick."""
    return bool(
        np.all(np.ceil(coverer.lows) <= np.ceil(subject.lows))
        and np.all(np.floor(subject.highs) <= np.floor(coverer.highs))
    )


# ----------------------------------------------------------------------
# What the caller sees
# ----------------------------------------------------------------------
class TestCallerFacingContract:
    def _instance(self, seed=0, k=40, share=0.6, fractional=True):
        rng = np.random.default_rng([21, seed])
        return make_instance(_discrete_schema(), rng, k, share, fractional)

    def test_row_indices_are_positions_in_the_callers_sequence(self):
        seen = {"covering_row": 0, "mcs_kept_rows": 0}
        for seed in range(30):
            subject, candidates = self._instance(seed)
            if seed % 3 == 0:  # plant a coverer somewhere among the disjoint
                candidates[seed % len(candidates)] = Subscription(
                    subject.schema, subject.lows - 1.0, subject.highs + 1.0
                )
            baseline = _checker(seed).check(subject, candidates)
            for shuffle in range(3):
                order = np.random.default_rng(shuffle).permutation(len(candidates))
                shuffled = [candidates[i] for i in order]
                result = _checker(seed).check(subject, CandidateSet(shuffled))
                assert result.answer == baseline.answer
                if baseline.covering_row is not None:
                    seen["covering_row"] += 1
                    # the first coverer in *this* order
                    assert _covers_every_tick(shuffled[result.covering_row], subject)
                    assert not any(
                        _covers_every_tick(candidate, subject)
                        for candidate in shuffled[: result.covering_row]
                    )
                kept = result.details.get("mcs_kept_rows")
                if kept is not None:
                    seen["mcs_kept_rows"] += 1
                    assert list(kept) == sorted(kept)
                    # the minimized cover set is a property of the set,
                    # not of the order it was handed over in
                    assert {shuffled[row].id for row in kept} == {
                        candidates[row].id
                        for row in baseline.details["mcs_kept_rows"]
                    }
                    assert all(_share_a_point(subject, shuffled[row]) for row in kept)
        assert all(seen.values()), seen

    def test_screen_to_zero_answers_without_a_table(self, monkeypatch):
        subject, candidates = self._instance(k=25, share=1.0)
        checker = _checker(1)
        state = checker._rng.bit_generator.state

        def no_table(*args, **kwargs):
            raise AssertionError("no conflict table is needed")

        monkeypatch.setattr("repro.core.subsumption.ConflictTable", no_table)
        result = checker.check(subject, candidates)
        assert result.answer is Answer.NOT_COVERED
        assert result.method is DecisionMethod.EMPTY_MCS
        assert result.original_set_size == 25
        assert result.reduced_set_size == 0
        assert result.details["screened_size"] == 0
        assert result.iterations_performed == 0
        assert checker._rng.bit_generator.state == state
        assert checker.theoretical_d(subject, candidates) == 0.0

    def test_list_arena_and_snapshot_inputs_agree(self):
        for seed in range(12):
            subject, candidates = self._instance(seed, fractional=seed % 2)
            arena = SubscriptionArena()
            for candidate in candidates:
                arena.add(candidate)
            grown = CandidateSet(candidates[:-1])
            grown.signed  # built, so ``extended`` has a matrix to carry over
            inputs = {
                "list": candidates,
                "tuple": tuple(candidates),
                "iterator": iter(candidates),
                "snapshot": CandidateSet(candidates),
                "arena": arena.select(candidates),
                "extended": grown.extended(candidates[-1]),
                "extended lazily": CandidateSet(candidates[:-1]).extended(
                    candidates[-1]
                ),
            }
            results = {}
            for name, given_as in inputs.items():
                checker = _checker(seed)
                results[name] = (
                    checker.check(subject, given_as),
                    checker._rng.bit_generator.state,
                )
            baseline, baseline_state = results.pop("list")
            for name, (result, state) in results.items():
                assert state == baseline_state, name
                assert result.answer == baseline.answer, name
                assert result.method == baseline.method, name
                assert result.covering_row == baseline.covering_row, name
                assert result.iterations_performed == baseline.iterations_performed
                assert result.rho_w == baseline.rho_w, name
                assert result.details.get("mcs_kept_rows") == baseline.details.get(
                    "mcs_kept_rows"
                ), name
                assert result.details["screened_size"] == baseline.details[
                    "screened_size"
                ]

    def test_extended_carries_the_signed_matrix(self):
        subject, candidates = self._instance(3)
        base = CandidateSet(candidates[:-1])
        assert base.extended(candidates[-1])._signed is None  # nothing to carry
        signed = base.signed
        grown = base.extended(candidates[-1])
        assert grown._signed is not None
        assert np.array_equal(grown.signed, CandidateSet(candidates).signed)
        assert not np.shares_memory(grown.signed, signed)
        assert not grown.signed.flags.writeable and not signed.flags.writeable
        assert base.signed is signed and signed.shape[1] == len(candidates) - 1

    def test_without_mcs_the_papers_set_is_kept_whole(self):
        """``use_mcs=False`` is the ±MCS ablation's baseline: no screen."""
        exhausted = 0
        for seed in range(16):
            subject, candidates = self._instance(seed, k=20, share=0.5)
            for use_fast_decisions in (True, False):
                stages = dict(use_mcs=False, use_fast_decisions=use_fast_decisions)
                checker = _checker(seed, **stages)
                reference_rng = np.random.default_rng(seed)
                result = checker.check(subject, candidates)
                reference = reference_check(
                    subject, candidates, reference_rng, **stages
                )
                assert_same_decision(result, reference, candidates, screened=False)
                assert (
                    checker._rng.bit_generator.state
                    == reference_rng.bit_generator.state
                )
                assert result.details["screened_size"] == len(candidates)
                assert "mcs_kept_rows" not in result.details
                if result.method is DecisionMethod.RSPC_EXHAUSTED:
                    exhausted += 1
                    assert result.reduced_set_size == len(candidates)
        assert exhausted

    def test_theoretical_d_uses_the_rows_check_uses(self, monkeypatch):
        import repro.core.subsumption as subsumption

        sizes = []
        real_table = subsumption.ConflictTable

        def recording_table(*args, **kwargs):
            table = real_table(*args, **kwargs)
            sizes.append(table.k)
            return table

        monkeypatch.setattr(subsumption, "ConflictTable", recording_table)
        compared = 0
        for seed in range(20):
            subject, candidates = self._instance(seed)
            checker = _checker(seed)
            result = checker.check(subject, candidates)
            budget = checker.theoretical_d(subject, candidates)
            unreduced = checker.theoretical_d(subject, candidates, apply_mcs=False)
            check_k, with_mcs_k, without_mcs_k = sizes[-3:]
            assert check_k == with_mcs_k == result.details["screened_size"]
            assert without_mcs_k == len(candidates)
            reference = reference_check(
                subject, candidates, np.random.default_rng(seed), use_fast_decisions=False
            )
            if reference.theoretical is None:
                assert budget == 0.0  # MCS emptied the set
            else:
                compared += 1
                assert budget == reference.theoretical
                if result.iterations_performed:
                    assert budget == result.theoretical_iterations
            assert unreduced >= 0.0
        assert compared


# ----------------------------------------------------------------------
# Soundness, against tick enumeration and the exact oracle
# ----------------------------------------------------------------------
_TINY = Schema.uniform_integer(2, 0, 7, name="tiny")
_TINY_MIXED = Schema(
    [("n", IntegerDomain(0, 7)), ("x", ContinuousDomain(0.0, 7.0, resolution=1e-6))],
    name="tiny-mixed",
)

#: bounds on a grid of tenths, so ticks, near-ticks and touching bounds all occur
_bound = st.integers(min_value=0, max_value=70).map(lambda tenth: tenth / 10.0)


@st.composite
def _tiny_box(draw, schema):
    lows, highs = [], []
    for attribute in schema.attributes:
        a, b = sorted((draw(_bound), draw(_bound)))
        if attribute.domain.is_discrete and np.floor(b) < np.ceil(a):
            b = float(np.ceil(a))  # holds at least one tick
        lows.append(a)
        highs.append(b)
    return Subscription(schema, lows, highs)


def _tiny_instance(schema):
    return st.tuples(
        _tiny_box(schema), st.lists(_tiny_box(schema), min_size=1, max_size=6)
    )


def _ticks(subscription):
    """Every integer point of an all-discrete box."""
    ranges = [
        range(int(np.ceil(low)), int(np.floor(high)) + 1)
        for low, high in zip(subscription.lows, subscription.highs)
    ]
    return [np.array(point, dtype=float) for point in itertools.product(*ranges)]


class TestSoundness:
    @settings(max_examples=200, deadline=None)
    @given(_tiny_instance(_TINY))
    def test_the_screen_keeps_exactly_the_candidates_holding_a_tick_of_s(
        self, instance
    ):
        subject, candidates = instance
        meeting = CandidateSet(candidates).meeting(subject)
        ticks = _ticks(subject)
        for candidate, kept in zip(candidates, meeting.tolist()):
            holds_a_tick = any(candidate.contains_point(tick) for tick in ticks)
            assert kept == holds_a_tick
            covers_every_tick = all(candidate.contains_point(tick) for tick in ticks)
            if covers_every_tick or candidate.covers(subject):
                assert kept  # a pair-wise coverer is never screened out

    @settings(max_examples=200, deadline=None)
    @given(_tiny_instance(_TINY_MIXED), st.integers(0, 2**32 - 1))
    def test_no_screened_out_candidate_contains_a_point_of_s(self, instance, seed):
        subject, candidates = instance
        meeting = CandidateSet(candidates).meeting(subject).tolist()
        rng = np.random.default_rng(seed)
        corners = [
            np.array(corner)
            for corner in itertools.product(
                *(
                    (np.ceil(low), np.floor(high)) if discrete else (low, high)
                    for low, high, discrete in zip(
                        subject.lows, subject.highs, subject.schema.vectors.discrete
                    )
                )
            )
        ]
        points = corners + [subject.sample_point(rng) for _ in range(20)]
        for candidate, kept in zip(candidates, meeting):
            assert kept == _share_a_point(subject, candidate)
            if not kept:
                assert not any(candidate.contains_point(point) for point in points)
            if candidate.covers(subject):
                assert kept

    @settings(max_examples=300, deadline=None)
    @given(_tiny_instance(_TINY), st.integers(0, 2**32 - 1))
    def test_no_verdict_contradicts_enumeration_or_the_exact_oracle(
        self, instance, seed
    ):
        subject, candidates = instance
        ticks = _ticks(subject)
        uncovered = [
            tick
            for tick in ticks
            if not any(candidate.contains_point(tick) for candidate in candidates)
        ]
        assert exact_group_cover(subject, candidates) == (not uncovered)
        result = assert_screen_is_neutral(subject, candidates, seed=seed)
        if result.method is DecisionMethod.PAIRWISE_COVER:
            coverer = candidates[result.covering_row]
            assert all(coverer.contains_point(tick) for tick in ticks)
        elif result.method is DecisionMethod.RSPC_EXHAUSTED:
            pass  # the one verdict that may err, and only towards "covered"
        else:  # every NO is definite
            assert uncovered
            if result.method is DecisionMethod.POINT_WITNESS:
                # a witness against the minimized cover set (MCS keeps the
                # answer, not every candidate that holds a given point)
                witness = result.witness_point
                assert any(np.array_equal(witness, tick) for tick in ticks)
                assert not any(
                    candidates[row].contains_point(witness)
                    for row in result.details["mcs_kept_rows"]
                )


class TestFractionalBoundsOnADiscreteAxis:
    """The reproduction of the false "not covered" (fails before the fix)."""

    def test_same_ticks_is_a_pairwise_cover(self):
        schema = Schema.uniform_integer(2, 0, 100)
        subject = Subscription(schema, [4.2, 4.2], [8, 8])
        candidate = Subscription(schema, [4.7, 4.7], [8, 8])
        assert _ticks(subject) and all(
            candidate.contains_point(tick) for tick in _ticks(subject)
        )
        assert exact_group_cover(subject, [candidate])
        result = _checker(0).check(subject, [candidate])
        assert result.answer is Answer.COVERED
        assert result.method is DecisionMethod.PAIRWISE_COVER
        assert ConflictTable(subject, [candidate]).row_defined_counts.tolist() == [0]

    def test_a_group_cover_split_between_two_ticks(self):
        """Two halves meeting between ticks 6 and 7 cover ``s``; read as
        ticks, the raw bounds 6.4 and 6.6 leave a conflict-free gap."""
        schema = Schema.uniform_integer(2, 0, 100)
        subject = Subscription(schema, [2.5, 2.5], [10.5, 10.5])
        halves = [
            Subscription(schema, [0, 0], [6.4, 20]),
            Subscription(schema, [6.6, 0], [20, 20]),
        ]
        assert exact_group_cover(subject, halves)
        assert minimized_cover_set(ConflictTable(subject, halves)).kept_rows == (0, 1)
        result = _checker(0, max_iterations=2_000).check(subject, halves)
        assert result.method is DecisionMethod.RSPC_EXHAUSTED
        assert result.details["mcs_kept_rows"] == (0, 1)

    def test_the_exact_oracle_counts_ticks_not_lengths(self):
        schema = Schema.uniform_integer(1, 0, 100)
        subject = Subscription(schema, [4], [8])
        assert not exact_group_cover(subject, [Subscription(schema, [4.7], [8])])
        assert exact_group_cover(subject, [Subscription(schema, [3.2], [8.9])])
        assert exact_group_cover(
            subject, [Subscription(schema, [3.2], [6.5]), Subscription(schema, [6.6], [9])]
        )


def test_boxes_meeting_accepts_one_box_or_a_batch():
    rng = np.random.default_rng(0)
    lows = rng.uniform(0, 5, (3, 20))
    highs = lows + rng.uniform(0, 5, (3, 20))
    signed = np.concatenate((lows, -highs))
    signed[:, 4] = np.nan  # a tombstone meets nothing
    boxes = [(rng.uniform(0, 10, 3), rng.uniform(0, 3, 3)) for _ in range(7)]
    limits = np.array([np.concatenate((low + span, -low)) for low, span in boxes]).T
    batch = boxes_meeting(signed, limits)
    assert batch.shape == (7, 20)
    for row, (low, span) in zip(batch, boxes):
        expected = np.all((lows <= (low + span)[:, None]) & (low[:, None] <= highs), axis=0)
        expected[4] = False
        assert row.tolist() == expected.tolist()
        one = boxes_meeting(signed, np.concatenate((low + span, -low)))
        assert one.tolist() == expected.tolist()


# ----------------------------------------------------------------------
# The benchmark's seam
# ----------------------------------------------------------------------
#: the names ``bench/layers.py:CORE_STAGES`` rebinds in
#: ``repro.core.subsumption`` to time and count the checker's stages
_BENCH_SEAM = (
    "ConflictTable",
    "detect_pairwise_cover",
    "detect_polyhedron_witness",
    "minimized_cover_set",
    "estimate_smallest_witness",
    "run_rspc",
)


def test_check_resolves_every_stage_the_benchmark_rebinds(monkeypatch):
    """A refactor that stops ``check`` from looking a stage up in its module
    namespace (a local alias, a moved call) would silently zero that stage's
    ``core.*`` row in ``bench/``; this fails instead."""
    import ast
    from pathlib import Path

    import repro.core.subsumption as subsumption

    layers = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    if layers.exists():  # the list above is the benchmark's, not a copy gone stale
        (stages,) = [
            node.value
            for node in ast.parse(layers.read_text()).body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["CORE_STAGES"]
        ]
        assert tuple(ast.literal_eval(stages)) == _BENCH_SEAM

    calls = dict.fromkeys(_BENCH_SEAM, 0)

    def counted(name, stage):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        return wrapper

    for name in _BENCH_SEAM:
        monkeypatch.setattr(subsumption, name, counted(name, getattr(subsumption, name)))
    rng = np.random.default_rng(31)
    checker = _checker(0)
    methods = set()
    for _ in range(40):
        subject, candidates = make_instance(_discrete_schema(), rng, 30, 0.6, True)
        methods.add(checker.check(subject, candidates).method)
        checker.theoretical_d(subject, candidates)
    assert DecisionMethod.RSPC_EXHAUSTED in methods or DecisionMethod.POINT_WITNESS in methods
    assert all(calls.values()), calls
    # every check and every theoretical_d built its table through the seam
    assert calls["ConflictTable"] == 80
    assert calls["detect_pairwise_cover"] == 40
