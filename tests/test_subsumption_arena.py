"""Differential sweep: the arena/vectorised pipeline vs the object pipeline.

The zero-copy arena path (``CandidateSet`` snapshots, sliced conflict
tables, matrix ``fc_i``/gap computations, blocked RSPC membership tests)
must return *stage-for-stage identical* :class:`SubsumptionResult`s to
the historical object-list pipeline: same answer, same deciding method,
same reduced set, same ``rho_w``/``d``, same guess counts, same witness
points.  The sweep drives both paths from identically seeded checkers
over random and adversarial instances (degenerate point intervals,
tiny discrete domains, conflicting candidate pairs, continuous domains)
and compares everything.

A second set of tests pins the candidate snapshots: a store or broker
link hands every decision a snapshot equal to its current pool, shares
it between mutations, and never aliases or touches an older one — a
snapshot's bounds are a copy of the active matcher's live columns, so
neither a removal's NaN tombstone nor a compaction reaches it.
"""

import numpy as np
import pytest

from repro.core.arena import CandidateSet, Matcher, as_candidate_set
from repro.core.conflict_table import ConflictTable, EntrySide
from repro.core.mcs import minimized_cover_set
from repro.core.pairwise import PairwiseCoverageChecker
from repro.core.store import SubscriptionStore
from repro.core.subsumption import SubsumptionChecker
from repro.model import (
    CategoricalDomain,
    ContinuousDomain,
    IntegerDomain,
    Schema,
    Subscription,
)
from repro.model.errors import ValidationError
from repro.model.intervals import Interval
from repro.workloads.generators import random_publication, random_subscription
from repro.workloads.scenarios import (
    non_cover_scenario,
    redundant_covering_scenario,
)

SEEDS = [3, 17, 101, 20060331]


def _mixed_schema() -> Schema:
    return Schema(
        [
            ("a", IntegerDomain(0, 1_000)),
            ("b", ContinuousDomain(0.0, 50.0, resolution=1e-6)),
            ("c", CategoricalDomain(["x", "y", "z", "w"])),
            ("d", IntegerDomain(-20, 20)),
        ],
        name="mixed",
    )


def _random_instance(schema, rng, k):
    subscription = random_subscription(schema, rng, width_fraction=(0.3, 0.9))
    candidates = [
        random_subscription(schema, rng, width_fraction=(0.05, 0.7))
        for _ in range(k)
    ]
    return subscription, candidates


def _degenerate_instance(schema, rng, k):
    """Candidates collapsed to points / slivers on some attributes."""
    subscription = random_subscription(schema, rng, width_fraction=(0.5, 1.0))
    candidates = []
    for _ in range(k):
        candidate = random_subscription(schema, rng, width_fraction=(0.1, 0.6))
        lows = candidate.lows.copy()
        highs = candidate.highs.copy()
        j = int(rng.integers(0, schema.m))
        highs[j] = lows[j]  # point interval on one attribute
        candidates.append(Subscription(schema, lows, highs))
    return subscription, candidates


def _conflicting_pair_instance(schema, rng):
    """Two candidates splitting ``s`` on one attribute (conflicting entries)."""
    subscription = random_subscription(schema, rng, width_fraction=(0.6, 1.0))
    lows = subscription.lows.copy()
    highs = subscription.highs.copy()
    mid = (lows[0] + highs[0]) / 2.0
    left_highs = highs.copy()
    left_highs[0] = mid
    right_lows = lows.copy()
    right_lows[0] = mid
    left = Subscription(schema, lows, left_highs)
    right = Subscription(schema, right_lows, highs)
    extra = [
        random_subscription(schema, rng, width_fraction=(0.1, 0.5))
        for _ in range(4)
    ]
    return subscription, [left, right] + extra


def _instances():
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        integer_schema = Schema.uniform_integer(6, 0, 500)
        mixed = _mixed_schema()
        tiny = Schema.uniform_integer(3, 0, 4)  # tiny discrete domain
        yield _random_instance(integer_schema, rng, 12)
        yield _random_instance(mixed, rng, 10)
        yield _random_instance(tiny, rng, 8)
        yield _degenerate_instance(integer_schema, rng, 8)
        yield _degenerate_instance(mixed, rng, 6)
        yield _conflicting_pair_instance(integer_schema, rng)
        yield _conflicting_pair_instance(mixed, rng)
    # structured instances from the paper's evaluation scenarios
    schema = Schema.uniform_integer(8, 0, 2_000)
    covering = redundant_covering_scenario(schema, 40, 11)
    yield covering.subscription, list(covering.candidates)
    noncover = non_cover_scenario(schema, 40, 13)
    yield noncover.subscription, list(noncover.candidates)


# ----------------------------------------------------------------------
# The per-attribute reference for ``fc_i`` (Definition 5)
# ----------------------------------------------------------------------
def _exclusive_extreme(source_positions, source_bounds, target_positions, use_max):
    """Per-target extreme of the source bounds excluding the same row.

    For each target position, return the max (or min) of the source
    bounds over source entries belonging to *other* rows; ``±inf``
    signals "no other-row source entry exists".
    """
    fill = -np.inf if use_max else np.inf
    result = np.full(len(target_positions), fill, dtype=float)
    if source_positions.size == 0:
        return result
    order = np.argsort(source_bounds)
    if use_max:
        best_pos = source_positions[order[-1]]
        best = source_bounds[order[-1]]
        second = source_bounds[order[-2]] if source_positions.size > 1 else fill
    else:
        best_pos = source_positions[order[0]]
        best = source_bounds[order[0]]
        second = source_bounds[order[1]] if source_positions.size > 1 else fill
    result[:] = best
    same = target_positions == best_pos
    result[same] = second
    return result


def conflict_free_counts_scalar(table, rows=None):
    """Per-attribute reference implementation of ``fc_i`` (Definition 5).

    The differential oracle of the ``conflict_free_counts`` fixture;
    both must agree exactly on every instance.  A LOW entry (negation
    ``x < A``) conflicts with a HIGH entry (negation ``x > B``) of another
    row iff ``s`` has no point strictly between ``B`` and ``A``.  The
    condition is monotone in ``B`` (larger ``B`` => more likely conflict),
    so only the largest *other-row* ``B`` matters — and symmetrically only
    the smallest other-row ``A`` matters for HIGH entries.
    """
    active = (
        np.arange(table.k, dtype=int) if rows is None else np.asarray(rows, dtype=int)
    )
    counts = np.zeros(len(active), dtype=int)
    if not len(active):
        return counts
    candidate_lows, candidate_highs = table.candidate_lows, table.candidate_highs
    open_slice_met = ConflictTable._open_slice_met
    for attribute in range(table.m):
        low_positions = np.nonzero(table.defined_low[active, attribute])[0]
        high_positions = np.nonzero(table.defined_high[active, attribute])[0]
        low_bounds = candidate_lows[active[low_positions], attribute]
        high_bounds = candidate_highs[active[high_positions], attribute]
        discrete = bool(table.schema.vectors.discrete[attribute])
        s_low, s_high = table._own_interval(attribute)

        if low_positions.size:
            other_max_b = _exclusive_extreme(
                high_positions, high_bounds, low_positions, use_max=True
            )
            a = low_bounds
            has_other = np.isfinite(other_max_b)
            if discrete:
                highest = np.minimum(a - 1.0, s_high)
                lowest = np.maximum(other_max_b + 1.0, s_low)
                conflict = has_other & (highest < lowest)
            else:
                highest = np.minimum(a, s_high)
                lowest = np.maximum(other_max_b, s_low)
                conflict = has_other & ~open_slice_met(other_max_b, lowest, highest, a)
            np.add.at(counts, low_positions, (~conflict).astype(int))

        if high_positions.size:
            other_min_a = _exclusive_extreme(
                low_positions, low_bounds, high_positions, use_max=False
            )
            b = high_bounds
            has_other = np.isfinite(other_min_a)
            if discrete:
                highest = np.minimum(other_min_a - 1.0, s_high)
                lowest = np.maximum(b + 1.0, s_low)
                conflict = has_other & (highest < lowest)
            else:
                highest = np.minimum(other_min_a, s_high)
                lowest = np.maximum(b, s_low)
                conflict = has_other & ~open_slice_met(b, lowest, highest, other_min_a)
            np.add.at(counts, high_positions, (~conflict).astype(int))
    return counts


def _decision_fields(decision):
    """A reduction decision as a comparable tuple, its checker result too."""
    result = decision.result
    merged = decision.merged
    return (
        decision.subscription.id,
        decision.forwarded,
        decision.covered_by,
        decision.replaced,
        decision.false_volume,
        decision.candidates_considered,
        decision.rspc_iterations,
        None
        if merged is None
        else (merged.id, merged.lows.tolist(), merged.highs.tolist()),
        None
        if result is None
        else (
            result.answer,
            result.method,
            result.iterations_performed,
            result.covering_row,
            result.details.get("mcs_kept_rows"),
            None if result.witness_point is None else result.witness_point.tolist(),
        ),
    )


def _assert_results_identical(a, b):
    assert a.answer == b.answer
    assert a.method == b.method
    assert a.original_set_size == b.original_set_size
    assert a.reduced_set_size == b.reduced_set_size
    assert a.rho_w == b.rho_w
    assert a.theoretical_iterations == b.theoretical_iterations
    assert a.iterations_performed == b.iterations_performed
    assert a.error_bound == b.error_bound
    assert a.truncated == b.truncated
    assert a.covering_row == b.covering_row
    if a.witness_point is None:
        assert b.witness_point is None
    else:
        assert np.array_equal(a.witness_point, b.witness_point)
    assert a.details.get("mcs_passes") == b.details.get("mcs_passes")
    assert a.details.get("mcs_kept_rows") == b.details.get("mcs_kept_rows")
    ea, eb = a.details.get("witness_estimate"), b.details.get("witness_estimate")
    if ea is not None or eb is not None:
        assert ea.per_attribute_gaps == eb.per_attribute_gaps
        assert ea.witness_size == eb.witness_size
        assert ea.subscription_size == eb.subscription_size


class TestArenaPipelineDifferential:
    def test_arena_and_object_pipelines_identical(self):
        for subscription, candidates in _instances():
            object_checker = SubsumptionChecker(
                delta=1e-4, max_iterations=64, rng=99
            )
            arena_checker = SubsumptionChecker(
                delta=1e-4, max_iterations=64, rng=99
            )
            matcher = Matcher()
            for candidate in candidates:
                matcher.add(candidate)
            snapshot = matcher.candidates()
            object_result = object_checker.check(subscription, list(candidates))
            arena_result = arena_checker.check(subscription, snapshot)
            _assert_results_identical(object_result, arena_result)

    def test_pipelines_identical_without_mcs_and_fast_decisions(self):
        for use_mcs in (True, False):
            for use_fast in (True, False):
                for subscription, candidates in _instances():
                    kwargs = dict(
                        delta=1e-4,
                        max_iterations=32,
                        rng=7,
                        use_mcs=use_mcs,
                        use_fast_decisions=use_fast,
                    )
                    a = SubsumptionChecker(**kwargs).check(
                        subscription, list(candidates)
                    )
                    b = SubsumptionChecker(**kwargs).check(
                        subscription, CandidateSet(candidates)
                    )
                    _assert_results_identical(a, b)

    def test_theoretical_d_matches_check_stages(self):
        for subscription, candidates in _instances():
            for apply_mcs in (True, False, None):
                a = SubsumptionChecker(delta=1e-5).theoretical_d(
                    subscription, list(candidates), apply_mcs=apply_mcs
                )
                b = SubsumptionChecker(delta=1e-5).theoretical_d(
                    subscription, CandidateSet(candidates), apply_mcs=apply_mcs
                )
                assert a == b

class TestVectorisedStageDifferentials:
    """The matrix stage implementations vs their per-object references."""

    def test_conflict_free_counts_matches_scalar(self, conflict_free_counts):
        for subscription, candidates in _instances():
            table = ConflictTable(subscription, candidates)
            rng = np.random.default_rng(1)
            subsets = [None, list(range(table.k))]
            if table.k > 2:
                subsets.append(
                    sorted(
                        rng.choice(table.k, size=table.k // 2, replace=False).tolist()
                    )
                )
            for rows in subsets:
                fast = conflict_free_counts(table, rows)
                slow = conflict_free_counts_scalar(table, rows)
                assert fast.tolist() == slow.tolist()

    def test_minimum_gap_measures_matches_scalar(self):
        for subscription, candidates in _instances():
            table = ConflictTable(subscription, candidates)
            for rows in (None, list(range(table.k))):
                fast = table.minimum_gap_measures(rows)
                slow = table._minimum_gap_measures_scalar(rows)
                # bit-exact, not approximately equal
                assert fast.tolist() == slow.tolist()

    def test_custom_domain_falls_back_to_scalar_path(self):
        class HalfMeasureDomain(IntegerDomain):
            """A user domain whose measure differs from the built-in."""

            def measure(self, interval):
                return super().measure(interval) / 2.0

        schema = Schema([("a", HalfMeasureDomain(0, 100))], name="custom")
        assert not schema.vectors.vectorisable
        subscription = Subscription(schema, [10.0], [90.0])
        candidate = Subscription(schema, [20.0], [80.0])
        table = ConflictTable(subscription, [candidate])
        fast = table.minimum_gap_measures()
        slow = table._minimum_gap_measures_scalar()
        assert fast.tolist() == slow.tolist()

    def test_cross_schema_fast_paths_raise_like_covers(self):
        first = Schema.uniform_integer(3, 0, 100)
        second = Schema.uniform_integer(3, 0, 50)
        snapshot = CandidateSet([Subscription(first, [0, 0, 0], [90, 90, 90])])
        foreign = Subscription(second, [10, 10, 10], [20, 20, 20])
        with pytest.raises(ValidationError):
            PairwiseCoverageChecker.check(foreign, snapshot)
        with pytest.raises(ValidationError):
            snapshot.covering_rows_mask(foreign)

    def test_iterator_candidates_still_accepted(self):
        from repro.core.policies import make_strategy, strategy_names

        schema = Schema.uniform_integer(2, 0, 9)
        subscription = Subscription(schema, [2, 2], [5, 5])
        coverer = Subscription(schema, [0, 0], [9, 9])
        checker = SubsumptionChecker(rng=1)
        assert checker.check(subscription, iter([coverer])).covered
        assert checker.theoretical_d(
            subscription, iter([coverer])
        ) == checker.theoretical_d(subscription, [coverer])

        # Every strategy decides alike on a list, a tuple, an iterator and
        # a snapshot of the same candidates: a single coverer, a union
        # cover (RSPC runs; merging merges) and a disjoint set.
        instances = (
            [Subscription(schema, [8, 8], [9, 9]), coverer],
            [
                Subscription(schema, [0, 0], [9, 3]),
                Subscription(schema, [0, 3], [9, 9]),
            ],
            [Subscription(schema, [6, 6], [9, 9])],
        )
        shapes = (list, tuple, iter, CandidateSet)
        assert set(strategy_names()) == {
            "none", "pairwise", "group", "merging", "hybrid"
        }
        for policy in strategy_names():
            for candidates in instances:
                decided = [
                    _decision_fields(
                        make_strategy(
                            policy, checker=SubsumptionChecker(max_iterations=64, rng=1)
                        ).decide(subscription, shape(candidates))
                    )
                    for shape in shapes
                ]
                assert decided == decided[:1] * len(shapes), policy

    def test_pairwise_check_vectorised_matches_scan(self):
        for subscription, candidates in _instances():
            scan = PairwiseCoverageChecker.check(subscription, list(candidates))
            fast = PairwiseCoverageChecker.check(
                subscription, CandidateSet(candidates)
            )
            assert scan.covered == fast.covered
            assert scan.comparisons == fast.comparisons
            if scan.covered:
                assert scan.covering.id == fast.covering.id

    def test_contains_values_matches_contains_point(self):
        rng = np.random.default_rng(9)
        for schema in (Schema.uniform_integer(7, 0, 100), _mixed_schema()):
            for _ in range(50):
                subscription = random_subscription(schema, rng)
                publication = random_publication(schema, rng)
                assert subscription.contains_values(
                    publication.values_list
                ) == subscription.contains_point(publication.values)


class TestSnapshotContract:
    def test_as_candidate_set_passthrough(self):
        snapshot = CandidateSet(())
        assert as_candidate_set(snapshot) is snapshot
        assert len(as_candidate_set([])) == 0

    def test_mixed_schema_candidate_set_rejected(self):
        first = Schema.uniform_integer(2, 0, 9)
        second = Schema.uniform_integer(2, 0, 8)  # same m, different domain
        with pytest.raises(ValidationError):
            CandidateSet(
                [
                    Subscription(first, [0, 0], [5, 5]),
                    Subscription(second, [0, 0], [5, 5]),
                ]
            )

    def test_contains_values_validates_point_length(self):
        schema = Schema.uniform_integer(3, 0, 9)
        subscription = Subscription(schema, [0, 0, 0], [9, 9, 9])
        with pytest.raises(ValidationError):
            subscription.contains_values([1.0, 1.0])
        with pytest.raises(ValidationError):
            subscription.contains_values([1.0, 1.0, 1.0, 1.0])

    def test_contains_values_rejects_nan_like_contains_point(self):
        schema = Schema.uniform_integer(2, 0, 9)
        subscription = Subscription(schema, [0, 0], [9, 9])
        point = [float("nan"), 5.0]
        assert not subscription.contains_values(point)
        assert subscription.contains_values(point) == subscription.contains_point(
            np.array(point)
        )

    def test_conflict_table_from_empty_candidate_set(self):
        schema = Schema.uniform_integer(3, 0, 9)
        subscription = Subscription(schema, [0, 0, 0], [9, 9, 9])
        table = ConflictTable(subscription, CandidateSet(()))
        assert table.k == 0
        assert table.candidate_lows.shape == (0, 3)

    def test_store_rejects_a_foreign_schema_before_touching_its_pools(self):
        first = Schema.uniform_integer(2, 0, 9)
        second = Schema.uniform_integer(3, 0, 9)
        third = Schema.uniform_integer(2, 0, 5)  # same m as first, new schema
        store = SubscriptionStore(policy="none")
        store.add(Subscription(first, [0, 0], [5, 5]))
        snapshot = store.active_candidates()
        for foreign in (
            Subscription(second, [0, 0, 0], [5, 5, 5]),
            Subscription(third, [0, 0], [5, 5]),
        ):
            with pytest.raises(ValidationError):
                store.add(foreign)
            assert foreign.id not in store
        assert len(store.active_pool) == 1
        assert store.stats["added"] == 1
        assert store.active_candidates() is snapshot


class TestStoreAndStrategyThreading:
    def test_store_reinsertion_storm_identical_to_object_semantics(self):
        """Unsubscribe re-check storms agree with a freshly rebuilt store."""
        schema = Schema.uniform_integer(4, 0, 200)
        rng = np.random.default_rng(8)
        store = SubscriptionStore(
            policy="group",
            checker=SubsumptionChecker(delta=1e-3, max_iterations=40, rng=2),
        )
        subs = [
            random_subscription(schema, rng, width_fraction=(0.2, 0.8))
            for _ in range(30)
        ]
        for sub in subs:
            store.add(sub)
        # Storm: remove a prefix of the active set, forcing re-insertions.
        for sub in list(store.active)[:5]:
            store.remove(sub.id)
        # Every surviving subscription is in exactly one pool, and the
        # snapshot holds the active pool's bounds exactly.
        active_ids = {s.id for s in store.active}
        covered_ids = {s.id for s in store.covered}
        assert not (active_ids & covered_ids)
        assert len(active_ids) + len(covered_ids) == 30 - 5
        _assert_snapshot_is(store.active_candidates(), store.active)

    def test_store_mutations_invalidate_cached_selection(self):
        schema = Schema.uniform_integer(3, 0, 100)
        coverer = Subscription(schema, [0, 0, 0], [50, 50, 50])
        store = SubscriptionStore(policy="pairwise")
        store.add(coverer)
        first = store.active_candidates()
        assert store.active_candidates() is first  # stable between mutations
        newcomer = Subscription(schema, [60, 60, 60], [95, 95, 95])
        store.add(newcomer)
        second = store.active_candidates()
        assert second is not first
        assert tuple(s.id for s in second) == (coverer.id, newcomer.id)
        assert tuple(s.id for s in first) == (coverer.id,)
        store.remove(newcomer.id)
        third = store.active_candidates()
        assert third is not second
        assert tuple(s.id for s in third) == (coverer.id,)

# ----------------------------------------------------------------------
# The signed attribute-major kernel (conflict thresholds, MCS, gaps)
# ----------------------------------------------------------------------
def _reference_fixed_point(table):
    """Algorithm 3 driven by the scalar ``fc_i`` oracle.

    Returns ``(kept_rows, removed_rows, passes, late_t_rule)`` where the
    last flag records that some pass after the first dropped a row with
    no conflict-free entry, i.e. through ``t_i >= |active|`` alone.
    """
    active = list(range(table.k))
    removed = []
    passes = 0
    late_t_rule = False
    while True:
        passes += 1
        if not active:
            break
        fc = conflict_free_counts_scalar(table, active)
        drop = [
            fc[i] >= 1 or int(table.row_defined_counts[row]) >= len(active)
            for i, row in enumerate(active)
        ]
        if passes > 1 and any(d and fc[i] == 0 for i, d in enumerate(drop)):
            late_t_rule = True
        if not any(drop):
            break
        removed += [row for row, d in zip(active, drop) if d]
        active = [row for row, d in zip(active, drop) if not d]
    return tuple(active), tuple(removed), passes, late_t_rule


def _continuous_schema() -> Schema:
    return Schema(
        [(f"c{i}", ContinuousDomain(0.0, 10.0, resolution=1e-6)) for i in range(5)],
        name="continuous",
    )


def _jittered(schema, subscription, rng):
    """Non-integer bounds on every axis (discrete ones included)."""
    lows = subscription.lows + rng.uniform(-0.9, 0.9, schema.m)
    highs = np.maximum(subscription.highs + rng.uniform(-0.9, 0.9, schema.m), lows)
    return Subscription(schema, lows, highs)


def _pinched(schema, subscription, attribute=1):
    """``subscription`` collapsed to a single value on one attribute."""
    highs = subscription.highs.copy()
    highs[attribute] = subscription.lows[attribute]
    return Subscription(schema, subscription.lows, highs)


def _kernel_instances():
    """Seeded tables over every schema kind, on both sides of 64 rows."""
    schemas = (
        Schema.uniform_integer(6, 0, 500),
        Schema.uniform_integer(3, 0, 4),  # tiny domain: ties everywhere
        _continuous_schema(),
        _mixed_schema(),
    )
    for schema in schemas:
        for k in (1, 2, 12, 63, 64, 65, 130):
            for variant in range(6):
                rng = np.random.default_rng([variant, k])
                subscription = random_subscription(
                    schema, rng, width_fraction=(0.3, 0.95)
                )
                candidates = [
                    random_subscription(schema, rng, width_fraction=(0.05, 0.8))
                    for _ in range(k)
                ]
                if variant % 3 == 1:
                    subscription = _jittered(schema, subscription, rng)
                    candidates = [_jittered(schema, c, rng) for c in candidates]
                if variant == 3 and schema.m > 1:  # a single-point axis of s
                    subscription = _pinched(schema, subscription)
                if variant % 3 == 2:  # duplicated boxes: ties at every extreme
                    candidates = [
                        Subscription(schema, c.lows, c.highs)
                        for c in (candidates[: (k + 1) // 2] * 2)[:k]
                    ]
                yield ConflictTable(subscription, candidates)


class TestSignedKernel:
    """One signed ``(2m, k)`` kernel vs the per-attribute scalar oracles."""

    def test_fixed_point_and_gaps_match_scalar_oracles(self):
        seen = {
            "late_t_rule": 0,
            "emptied_in_pass_1": 0,
            "fractional_discrete_bound": 0,
            "entry_on_a_single_point_axis": 0,
        }
        sizes = set()
        for table in _kernel_instances():
            kept, removed, passes, late_t_rule = _reference_fixed_point(table)
            result = minimized_cover_set(table)
            assert result.kept_rows == kept
            assert result.removed_rows == removed  # same order, pass by pass
            assert result.iterations == passes
            assert all(type(row) is int for row in result.kept_rows)
            # a second run sees the table's cached matrices unharmed
            assert minimized_cover_set(table) == result
            for rows in (None, list(kept) or None):
                assert (
                    table.minimum_gap_measures(rows).tolist()
                    == table._minimum_gap_measures_scalar(rows).tolist()
                )
            seen["late_t_rule"] += late_t_rule
            seen["emptied_in_pass_1"] += not kept and passes == 2
            # raw bounds off the ticks of a discrete axis reach the table
            # snapped inwards ...
            raw = np.array([c.lows for c in table.candidates])
            discrete = table.schema.vectors.discrete
            seen["fractional_discrete_bound"] += bool(
                (raw != np.ceil(raw))[:, discrete].any()
            )
            assert np.array_equal(
                table.candidate_lows[:, discrete], np.ceil(raw)[:, discrete]
            )
            assert np.array_equal(table.candidate_lows[:, ~discrete], raw[:, ~discrete])
            # ... and where s is one point of a continuous axis its entries
            # are slices of a closed box, not empty ones
            pinched = ~discrete & (table.subscription.lows == table.subscription.highs)
            seen["entry_on_a_single_point_axis"] += bool(
                (table.defined_low | table.defined_high)[:, pinched].any()
            )
            assert np.isfinite(table._ensure_pass_cache()[1][table._defined]).all()
            sizes.add(table.k)
        # the sweep really exercises what it claims to
        assert all(seen.values()), seen
        assert {1, 63, 64, 65, 130} <= sizes

    def test_conflict_free_counts_follow_the_given_row_order(self, conflict_free_counts):
        """Regression: a full-length permutation used to skip the gather."""
        schema = Schema.uniform_integer(6, 0, 500)
        rng = np.random.default_rng(17)
        subscription, candidates = _random_instance(schema, rng, 6)
        table = ConflictTable(subscription, candidates)
        in_order = conflict_free_counts_scalar(table).tolist()
        assert len(set(in_order)) > 1  # order is observable
        for rows in ([5, 4, 3, 2, 1, 0], [2, 0, 1, 5, 3, 4]):
            assert conflict_free_counts(table, rows).tolist() == [
                in_order[row] for row in rows
            ]
        for rows in ([5, 4, 3, 2, 1, 0], [4, 1], [1, 4], [3]):
            assert (
                conflict_free_counts(table, rows).tolist()
                == conflict_free_counts_scalar(table, rows).tolist()
            )
        assert conflict_free_counts(table).tolist() == in_order
        assert conflict_free_counts(table, []).tolist() == []

    def test_non_integer_bound_on_discrete_axis_snaps_to_its_tick(self, conflict_free_counts):
        """A bound between two ticks stands for the next tick inwards: the
        slice below ``3.2`` inside ``[2.5, 9]`` is the tick ``3``, not the
        empty range ``[2.5, 2.2]`` the raw arithmetic makes of it."""
        schema = Schema.uniform_integer(2, 0, 20)
        subscription = Subscription(schema, [2.5, 0.0], [9.0, 20.0])  # ticks 3..9
        sliver = Subscription(schema, [3.2, 0.0], [9.0, 20.0])  # ticks 4..9
        other = Subscription(schema, [0.0, 0.0], [6.0, 20.0])  # HIGH entry on x1
        hollow = Subscription(schema, [2.9, 0.0], [9.4, 20.0])  # ticks 3..9 too
        table = ConflictTable(subscription, [sliver, other, hollow])
        assert table.entry_region(0, 0, EntrySide.LOW) == Interval(3.0, 3.0)
        snapped = table._ensure_pass_cache()[2]
        assert snapped[0, 0] == 3.0
        assert not np.isneginf(table._ensure_pass_cache()[1]).any()
        # every tick of s is a tick of ``hollow``: no entry, whatever the
        # raw bounds say
        assert table.row_defined_counts[2] == 0
        assert not hollow.covers(subscription)
        for rows in (None, [0], [1], [1, 0], [2, 0, 1]):
            assert (
                conflict_free_counts(table, rows).tolist()
                == conflict_free_counts_scalar(table, rows).tolist()
            )
        # the tick 3 is not above 6: the sliver's entry conflicts with
        # ``other``'s, and alone it has nothing to conflict with
        assert conflict_free_counts(table, [0]).tolist() == [1]
        assert conflict_free_counts(table, [0, 1]).tolist()[0] == 0

    def test_single_point_continuous_axis_between_two_candidates(self, conflict_free_counts):
        """Two candidates either side of a single-point continuous range
        each own a conflict-free entry: the point lies strictly between
        them."""
        schema = _continuous_schema()
        subject = Subscription(schema, [5.0] + [0.0] * 4, [5.0] + [10.0] * 4)
        sides = [
            Subscription(schema, [6.0] + [0.0] * 4, [7.0] + [10.0] * 4),
            Subscription(schema, [1.0] + [0.0] * 4, [2.0] + [10.0] * 4),
        ]
        table = ConflictTable(subject, sides)
        assert conflict_free_counts(table).tolist() == [1, 1]
        assert conflict_free_counts_scalar(table).tolist() == [1, 1]

    def test_tie_at_a_column_extreme(self, conflict_free_counts):
        """Two rows share the largest HIGH bound: each faces the other's."""
        schema = Schema.uniform_integer(1, 0, 100)
        subscription = Subscription(schema, [0.0], [100.0])
        left_a = Subscription(schema, [0.0], [40.0])
        left_b = Subscription(schema, [0.0], [40.0])
        right = Subscription(schema, [41.0], [100.0])
        table = ConflictTable(subscription, [left_a, left_b, right])
        for rows in (None, [0, 2], [1, 2], [2], [0, 1]):
            assert (
                conflict_free_counts(table, rows).tolist()
                == conflict_free_counts_scalar(table, rows).tolist()
            )
        kept, removed, passes, _ = _reference_fixed_point(table)
        result = minimized_cover_set(table)
        assert (result.kept_rows, result.removed_rows, result.iterations) == (
            kept,
            removed,
            passes,
        )

    def test_infinite_bounds(self, conflict_free_counts):
        unbounded = Schema(
            [
                ("u", ContinuousDomain(-np.inf, np.inf)),
                ("v", ContinuousDomain(-np.inf, np.inf)),
                ("n", IntegerDomain(0, 100)),
            ],
            name="unbounded",
        )
        inf = np.inf
        subscription = Subscription(unbounded, [-inf, 0.0, 10.0], [inf, inf, 90.0])
        candidates = [
            Subscription(unbounded, [-inf, -5.0, 0.0], [3.0, inf, 50.0]),
            Subscription(unbounded, [3.0, 0.0, 40.0], [inf, 7.5, 100.0]),
            Subscription(unbounded, [-1.0, 7.5, 20.0], [1.0, inf, 60.0]),
            Subscription(unbounded, [-inf, -inf, 0.0], [inf, inf, 100.0]),
        ]
        tables = [ConflictTable(subscription, candidates)]
        # ±inf in the candidate matrices of a *discrete* axis as well
        schema = Schema.uniform_integer(2, 0, 50)
        bounded = Subscription(schema, [5.0, 5.0], [45.0, 45.0])
        rows = [Subscription(schema, [10.0, 0.0], [50.0, 30.0]) for _ in range(3)]
        lows = np.array([[10.0, -inf], [-inf, 20.0], [12.5, 0.0]])
        highs = np.array([[inf, 30.0], [25.0, inf], [40.0, 44.5]])
        snapshot = CandidateSet(rows, np.concatenate((lows, -highs), axis=1).T)
        tables.append(ConflictTable(bounded, snapshot))
        # the fractional bounds reach the table as ticks, the infinite
        # ones as they are
        assert tables[-1].candidate_lows.tolist() == [
            [10.0, -inf],
            [-inf, 20.0],
            [13.0, 0.0],
        ]
        assert tables[-1].candidate_highs.tolist() == [
            [inf, 30.0],
            [25.0, inf],
            [40.0, 44.0],
        ]
        for table in tables:
            for subset in (None, [0, 1], [2, 0]):
                assert (
                    conflict_free_counts(table, subset).tolist()
                    == conflict_free_counts_scalar(table, subset).tolist()
                )
                assert (
                    table.minimum_gap_measures(subset).tolist()
                    == table._minimum_gap_measures_scalar(subset).tolist()
                )
            kept, removed, passes, _ = _reference_fixed_point(table)
            result = minimized_cover_set(table)
            assert (result.kept_rows, result.removed_rows, result.iterations) == (
                kept,
                removed,
                passes,
            )


# ----------------------------------------------------------------------
# Append-only candidate snapshots
# ----------------------------------------------------------------------
def _raw_columns(subscriptions):
    """The raw signed ``(2m, k)`` bounds of ``subscriptions``, by hand."""
    return np.array([np.concatenate((s.lows, -s.highs)) for s in subscriptions]).T


def _assert_snapshot_is(snapshot, subscriptions):
    """``snapshot`` equals a from-scratch rebuild over ``subscriptions``."""
    subscriptions = list(subscriptions)
    assert len(snapshot) == len(subscriptions)
    assert all(a is b for a, b in zip(snapshot, subscriptions))
    assert tuple(s.id for s in snapshot) == tuple(s.id for s in subscriptions)
    if subscriptions:
        assert np.array_equal(snapshot.raw, _raw_columns(subscriptions))
        assert np.array_equal(
            snapshot.signed, CandidateSet(subscriptions).signed
        )


class TestAppendOnlySnapshots:
    def test_extended_equals_a_fresh_snapshot(self):
        schema = Schema.uniform_integer(4, 0, 50)
        rng = np.random.default_rng(5)
        subs = [random_subscription(schema, rng) for _ in range(7)]
        matcher = Matcher()
        for sub in subs[:6]:
            matcher.add(sub)
        for base in (matcher.candidates(), CandidateSet(subs[:6])):
            lazily_stacked = base._raw is None
            if not lazily_stacked:
                raw_before = base.raw.copy()
            grown = base.extended(subs[6])
            _assert_snapshot_is(grown, subs)
            matcher.add(subs[6])
            fresh = matcher.candidates()
            matcher.remove(subs[6].id)
            assert tuple(s.id for s in grown) == tuple(s.id for s in fresh)
            assert np.array_equal(grown.raw, fresh.raw)
            assert grown.schema is base.schema
            assert not np.shares_memory(grown.raw, fresh.raw)
            # the previous snapshot is neither aliased nor touched
            _assert_snapshot_is(base, subs[:6])
            assert not np.shares_memory(grown.raw, base.raw)
            if not lazily_stacked:
                assert np.array_equal(base.raw, raw_before)
            # nobody can write to either
            assert not grown.raw.flags.writeable and not base.raw.flags.writeable

    def test_extended_from_empty_and_across_schemas(self):
        schema = Schema.uniform_integer(2, 0, 9)
        other = Schema.uniform_integer(2, 0, 8)  # same m, different domain
        first = Subscription(schema, [1, 1], [5, 5])
        grown = CandidateSet(()).extended(first)
        _assert_snapshot_is(grown, [first])
        assert grown.schema is schema
        with pytest.raises(ValidationError):
            grown.extended(Subscription(other, [0, 0], [5, 5]))

    def test_served_snapshots_are_copies(self):
        """A removal writes NaN into the active matcher's column and a
        compaction moves its columns; no snapshot served before either
        changes — the one served with no tombstone in the matrix included."""
        schema = Schema.uniform_integer(3, 0, 60)
        rng = np.random.default_rng(31)
        store = SubscriptionStore(policy="none")
        subs = [random_subscription(schema, rng) for _ in range(32)]
        for sub in subs:
            store.add(sub)
        pool = store.active_pool
        served = []
        for sub in subs[:24]:
            block = store._selection is None and not pool._dead
            snapshot = store.active_candidates()
            bounds = (snapshot.raw.tobytes(), snapshot.signed.tobytes())
            served.append((snapshot, block, bounds))
            store.remove(sub.id)
        # compactions at the 16th and the 24th removal (tombstones == live)
        assert pool.compactions == 2
        assert sum(block for _, block, _ in served) == 1
        for snapshot, _, bounds in served:
            assert (snapshot.raw.tobytes(), snapshot.signed.tobytes()) == bounds
            assert not np.isnan(snapshot.raw).any()
            _assert_snapshot_is(snapshot, snapshot.subscriptions)

    @pytest.mark.parametrize("policy", ["pairwise", "group", "merging", "hybrid"])
    def test_store_never_serves_a_stale_snapshot(self, policy):
        schema = Schema.uniform_integer(3, 0, 60)
        rng = np.random.default_rng(23)
        store = SubscriptionStore(
            policy=policy,
            checker=SubsumptionChecker(delta=1e-3, max_iterations=40, rng=4),
            merge_budget=0.5,
        )
        outcomes = set()
        extended_in_place = 0
        live = []
        for step in range(160):
            before = store.active_candidates()
            ids_before = tuple(s.id for s in store.active)
            if live and rng.random() < 0.3:
                victim = live.pop(int(rng.integers(0, len(live))))
                outcome = store.remove(victim)
                outcomes.add("removed-active" if outcome.was_active else "removed")
                outcomes.update("promoted" for _ in outcome.promoted)
            else:
                # wide boxes cover, narrow ones get suppressed or merged
                width = (0.5, 1.0) if step % 7 == 0 else (0.05, 0.5)
                sub = random_subscription(schema, rng, width_fraction=width)
                decision = store.add(sub)
                live.append(sub.id)
                if decision.merged is not None:
                    outcomes.add("merged")
                elif not decision.forwarded:
                    outcomes.add("suppressed")
                else:
                    outcomes.add("forwarded")
            grown_eagerly = store._selection is not None
            after = store.active_candidates()
            _assert_snapshot_is(after, store.active)
            if tuple(s.id for s in store.active) == ids_before:
                assert after is before  # untouched pool, shared snapshot
            else:
                assert after is not before
                assert not np.shares_memory(after.raw, before.raw)
                _assert_snapshot_is(before, before.subscriptions)  # left intact
                extended_in_place += grown_eagerly
        expected = {"forwarded", "suppressed", "removed-active"}
        expected |= (
            {"merged"} if policy in ("merging", "hybrid") else {"promoted"}
        )
        assert expected <= outcomes, outcomes
        assert extended_in_place  # the append path really ran

    @pytest.mark.parametrize("policy", ["pairwise", "group", "merging", "hybrid"])
    def test_broker_links_never_serve_a_stale_snapshot(self, policy):
        from repro.broker.broker import Broker
        from repro.broker.messages import SubscriptionMessage, UnsubscriptionMessage

        schema = Schema.uniform_integer(3, 0, 60)
        rng = np.random.default_rng(29)
        broker = Broker(
            "B",
            neighbors=("N1", "N2"),
            policy=policy,
            checker=SubsumptionChecker(delta=1e-3, max_iterations=40, rng=4),
            merge_budget=0.5,
        )
        inner = broker.strategy.decide
        decided_against = []

        def spy(subscription, candidates):
            # at decision time the snapshot is one link's advertisement
            # set, in advertisement order, with matching bounds
            assert any(
                tuple(s.id for s in candidates) == tuple(s.id for s in link.active)
                for link in broker.links.values()
            ) or not len(candidates)
            _assert_snapshot_is(candidates, candidates.subscriptions)
            decided_against.append(len(candidates))
            return inner(subscription, candidates)

        broker.strategy.decide = spy
        live = []
        extended = 0
        for step in range(140):
            cached = {n: link._selection for n, link in broker.links.items()}
            if live and rng.random() < 0.3:
                victim = live.pop(int(rng.integers(0, len(live))))
                broker.handle_unsubscription(
                    UnsubscriptionMessage(
                        sender=None, recipient="B", subscription_id=victim, origin="B"
                    )
                )
            else:
                width = (0.5, 1.0) if step % 7 == 0 else (0.05, 0.5)
                sub = random_subscription(schema, rng, width_fraction=width)
                live.append(sub.id)
                broker.handle_subscription(
                    SubscriptionMessage(
                        sender=None, recipient="B", subscription=sub, origin="B"
                    )
                )
            for neighbor, link in broker.links.items():
                snapshot = link.active_candidates()
                _assert_snapshot_is(snapshot, link.active)
                assert link.active_candidates() is snapshot
                previous = cached[neighbor]
                if previous is not None and snapshot is not previous:
                    assert not np.shares_memory(snapshot.raw, previous.raw)
                    _assert_snapshot_is(previous, previous.subscriptions)
                    extended += tuple(s.id for s in snapshot)[:-1] == tuple(s.id for s in previous)
        assert extended and max(decided_against) >= 2
