"""Differential test of the RSPC guess kernel against the per-batch loop.

``_reference_guess_witness`` is the loop the kernel replaced: one batch of
256 guesses at a time, every attribute column drawn by its own
scalar-bounds call, row-major ``(count, m)`` points.  The kernel draws
several batches ahead in fused calls and rolls the generator back when a
witness turns up early, so the contract checked here is threefold — the
same witness, the same guess count, and the same
``rng.bit_generator.state`` after the call, which is what keeps every
*later* check on the seeded stream the golden traces pin.
"""

import math

import numpy as np
import pytest

from repro.core.rspc import (
    _BATCH_SIZE,
    _CANDIDATE_BLOCK,
    _GROUP_CAP,
    _WORD_MIN_GUESSES,
    RSPCOutcome,
    _candidate_blocks,
    _guess_witness,
    run_rspc,
)
from repro.core.subsumption import SubsumptionChecker
from repro.model import Attribute, ContinuousDomain, IntegerDomain, Schema, Subscription
from repro.utils import rng as rng_module
from repro.utils.rng import integers_into


# ----------------------------------------------------------------------
# The reference: the per-batch loop as it stood before the kernel, with
# the sampling plan inlined (and its discrete bounds snapped inwards)
# ----------------------------------------------------------------------
def _reference_sample_points(subscription, rng, count):
    discrete = subscription.schema.vectors.discrete
    points = np.empty((count, subscription.m), dtype=float)
    for attribute in range(subscription.m):
        low = float(subscription.lows[attribute])
        high = float(subscription.highs[attribute])
        if discrete[attribute]:
            points[:, attribute] = rng.integers(
                math.ceil(low), math.floor(high) + 1, size=count
            )
        elif high > low:
            points[:, attribute] = rng.uniform(low, high, size=count)
        else:
            points[:, attribute] = low
    return points


def _reference_guess_witness(subscription, cand_lows, cand_highs, rng, allowed):
    if len(cand_lows) <= _CANDIDATE_BLOCK:
        blocks = [(cand_lows[np.newaxis, :, :], cand_highs[np.newaxis, :, :])]
    else:
        with np.errstate(all="ignore"):
            volume = np.prod(cand_highs - cand_lows + 1.0, axis=1)
        order = np.argsort(-volume)
        blocks = [
            (
                cand_lows[order[start : start + _CANDIDATE_BLOCK]][np.newaxis, :, :],
                cand_highs[order[start : start + _CANDIDATE_BLOCK]][np.newaxis, :, :],
            )
            for start in range(0, len(order), _CANDIDATE_BLOCK)
        ]
    performed = 0
    while performed < allowed:
        batch = min(_BATCH_SIZE, allowed - performed)
        points = _reference_sample_points(subscription, rng, batch)
        covered = np.zeros(batch, dtype=bool)
        remaining = np.arange(batch)
        for block_lows, block_highs in blocks:
            subset = points[remaining, np.newaxis, :]
            inside = (
                ((subset >= block_lows) & (subset <= block_highs))
                .all(axis=2)
                .any(axis=1)
            )
            covered[remaining[inside]] = True
            remaining = remaining[~inside]
            if remaining.size == 0:
                break
        if covered.all():
            performed += batch
            continue
        first = int(covered.argmin())
        return points[first], performed + first + 1
    return None, performed


def _reference_on_signed(subscription, signed, rng, allowed):
    """The reference with ``_guess_witness``'s signature, to patch it in."""
    m = signed.shape[0] // 2
    return _reference_guess_witness(
        subscription,
        np.ascontiguousarray(signed[:m].T),
        np.ascontiguousarray(-signed[m:].T),
        rng,
        allowed,
    )


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
M = 4
SPAN = 100_000.0


def _schema(kind):
    integer = IntegerDomain(-200_000, 200_000)
    continuous = ContinuousDomain(-200_000.0, 200_000.0)
    domains = {
        "discrete": [integer] * M,
        "continuous": [continuous] * M,
        "mixed": [integer, continuous, continuous, integer],
        # a degenerate column of each kind (see ``_subscription``)
        "degenerate": [integer, integer, continuous, continuous],
    }[kind]
    return Schema(
        [Attribute(f"x{j + 1}", domain) for j, domain in enumerate(domains)],
        name=kind,
    )


SCHEMAS = {
    kind: _schema(kind) for kind in ("discrete", "continuous", "mixed", "degenerate")
}


def _subscription(kind):
    lows = [0.0] * M
    highs = [SPAN] * M
    if kind == "degenerate":
        highs[1] = lows[1] = 7.0
        highs[3] = lows[3] = 2.5
    return Subscription(SCHEMAS[kind], lows, highs)


def _candidates(kind, k, hole, seed):
    """``k`` boxes that together hold all of ``s`` but a slab ``hole``
    wide at the top of its first attribute.

    Every box spans the covered part of attribute 1 and all of the
    degenerate columns; one other attribute is cut into overlapping
    slices whose union is ``s``, so a guess is a witness iff it falls into
    the slab — with probability ``hole / SPAN``.
    """
    rng = np.random.default_rng(seed)
    schema = SCHEMAS[kind]
    cut = 1 if kind != "degenerate" else 2
    top = SPAN - hole
    edges = np.linspace(0.0, SPAN, k + 1)
    out = []
    for i in range(k):
        lows = [-5.0] * M
        highs = [SPAN + 5.0] * M
        highs[0] = top if hole else SPAN + 5.0
        if k > 1:
            # overlapping slices along ``cut``; the widths differ so the
            # volume ordering has something to sort
            lows[cut] = math.floor(edges[i]) - float(rng.integers(0, 3))
            highs[cut] = math.ceil(edges[i + 1]) + float(rng.integers(0, 40))
        out.append(Subscription(schema, lows, highs))
    order = rng.permutation(k)
    return [out[i] for i in order]


def _signed(candidates):
    lows = np.array([c.lows for c in candidates])
    highs = np.array([c.highs for c in candidates])
    return lows, highs, np.concatenate((lows.T, -highs.T))


def _run_both(subscription, candidates, allowed, seed, burn=0):
    lows, highs, signed = _signed(candidates)
    old_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    if burn:
        # an odd number of buffered 32-bit draws before the call
        old_rng.integers(0, 10, size=burn, dtype=np.uint32)
        new_rng.integers(0, 10, size=burn, dtype=np.uint32)
    expected = _reference_guess_witness(subscription, lows, highs, old_rng, allowed)
    got = _guess_witness(subscription, signed, new_rng, allowed)
    return expected, got, old_rng, new_rng


def _states_equal(first, second):
    """``bit_generator.state`` equality (MT19937 keeps its key in an array)."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            _states_equal(first[key], second[key]) for key in first
        )
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    return first == second


def _assert_same(expected, got, old_rng, new_rng):
    assert got[1] == expected[1]
    if expected[0] is None:
        assert got[0] is None
    else:
        assert got[0] is not None
        assert got[0].dtype == expected[0].dtype
        assert np.array_equal(got[0], expected[0])
    assert _states_equal(new_rng.bit_generator.state, old_rng.bit_generator.state)


KINDS = ("discrete", "mixed", "continuous", "degenerate")
KS = (1, 8, 9, 64, 200)
BUDGETS = (1, 255, 256, 257, 1000, 10_000)
#: slab widths giving a witness never / once in 5 000 guesses (late
#: batches, or none in a 10 000 budget) / once in 50 (the first batch)
NEVER, RARE, COMMON = 0.0, 20.0, 2000.0
HOLES = (NEVER, RARE, COMMON)


BIT_GENERATORS = (
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


class TestNumpyStreamProperty:
    """What the fused draw rests on, as a statement about NumPy alone:
    ``integers`` with broadcast bounds and ``size=(G, m, B)`` returns the
    values of — and leaves the generator where — ``G x m`` scalar-bounds
    calls of ``size=B`` in C order do.  Should a NumPy release change
    that, this test names the cause instead of forty golden traces."""

    #: number of values in each range: 1 draws nothing, 2**32 takes raw
    #: 32-bit words, 2**32 + 1 is the first to need the 64-bit routine
    RANGES = (1, 2, 256, 65_536, 2**32 - 1, 2**32, 2**32 + 1, 2**45)
    OFFSETS = (0, -7, -(2**40), 12_345)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("burn", (0, 1, 3))
    def test_broadcast_bounds_equal_scalar_calls(self, bit_generator, burn):
        batches, size = 3, 37
        lows = np.array(
            [self.OFFSETS[i % len(self.OFFSETS)] for i in range(len(self.RANGES))],
            dtype=np.int64,
        )
        highs = lows + np.array(self.RANGES, dtype=np.int64)
        m = len(lows)
        fused_rng = np.random.Generator(bit_generator(2006))
        scalar_rng = np.random.Generator(bit_generator(2006))
        for rng in (fused_rng, scalar_rng):
            # an odd count leaves half a 64-bit word in the 32-bit buffer
            rng.integers(0, 10, size=burn, dtype=np.uint32)
        fused = fused_rng.integers(
            lows[np.newaxis, :, np.newaxis],
            highs[np.newaxis, :, np.newaxis],
            size=(batches, m, size),
        )
        scalar = np.array(
            [
                [
                    scalar_rng.integers(int(lows[j]), int(highs[j]), size=size)
                    for j in range(m)
                ]
                for _ in range(batches)
            ]
        )
        assert fused.dtype == scalar.dtype == np.int64
        assert np.array_equal(fused, scalar)
        assert _states_equal(
            fused_rng.bit_generator.state, scalar_rng.bit_generator.state
        )
        # and the streams stay together afterwards
        assert fused_rng.integers(0, 2**62) == scalar_rng.integers(0, 2**62)
        assert fused_rng.uniform() == scalar_rng.uniform()


def _lemire_spy(monkeypatch):
    """Record what each vectorised draw of ``integers_into`` returned
    (``True``: it drew, ``False``: NumPy's call ran instead)."""
    seen = []
    lemire = rng_module._lemire_into

    def spy(*args):
        seen.append(lemire(*args))
        return seen[-1]

    monkeypatch.setattr(rng_module, "_lemire_into", spy)
    return seen


class TestIntegersInto:
    """``integers_into`` against the call it stands for:
    ``Generator.integers(first, beyond, size=(G, m, B))`` transposed to
    ``(m, G, B)`` — the values, the whole ``bit_generator.state``
    (``has_uint32`` and ``uinteger`` included) and the draws after it."""

    #: 1 draws no word, 2**21 is the widest vectorised range, 2**21 + 1
    #: and 2**32 fall back to NumPy
    SPANS = (1, 2, 10_000, 2**21 - 1, 2**21, 2**21 + 1, 2**32)
    #: ``(G, B)``: 2 and 74 words stay below the crossover, 4 096 and
    #: 6 144 (two and three drawing columns) do not
    SIZES = ((1, 1), (1, 37), (8, 256))

    @staticmethod
    def _compare(bit_generator, seed, spans, batches, size, burn=0):
        first = np.array([-7, 0, 12_345, -(2**40)][: len(spans)], dtype=np.int64)
        first = first[:, np.newaxis]
        beyond = first + np.array(spans, dtype=np.int64)[:, np.newaxis]
        numpy_rng = np.random.Generator(bit_generator(seed))
        helper_rng = np.random.Generator(bit_generator(seed))
        for rng in (numpy_rng, helper_rng):
            # an odd count leaves half a 64-bit word in the 32-bit buffer
            rng.integers(0, 10, size=burn, dtype=np.uint32)
        expected = numpy_rng.integers(
            first, beyond, size=(batches, len(spans), size)
        ).transpose(1, 0, 2)
        out = np.empty((len(spans), batches, size))
        integers_into(helper_rng, first, beyond, out)
        assert np.array_equal(out, expected)
        assert _states_equal(
            helper_rng.bit_generator.state, numpy_rng.bit_generator.state
        )
        assert helper_rng.integers(0, 2**62) == numpy_rng.integers(0, 2**62)
        assert helper_rng.uniform() == numpy_rng.uniform()

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("sizes", SIZES)
    @pytest.mark.parametrize("burn", (0, 1, 3))
    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("constant", (False, True), ids=("live", "constant"))
    def test_equals_numpy(self, bit_generator, sizes, burn, span, constant):
        # ``constant``: a one-value column between two that draw
        spans = (span, 1, span) if constant else (span, span, span)
        self._compare(bit_generator, 2006 + burn, spans, *sizes, burn=burn)

    @pytest.mark.parametrize("burn", (0, 1))
    def test_a_rejected_word_falls_back_to_numpy(self, burn, monkeypatch):
        # the range most likely to reject a word (2**32 mod span is just
        # below span): words 630, 1187 and 3056 of PCG64(0) are rejected
        span = 2_096_129
        words = np.random.PCG64(0).random_raw(1536).view(np.uint32).tolist()
        threshold = (2**32 - span) % span
        assert [i for i, u in enumerate(words) if u * span % 2**32 < threshold] == [
            630,
            1187,
            3056,
        ]
        seen = _lemire_spy(monkeypatch)
        self._compare(np.random.PCG64, 0, (span, span, span), 8, 256, burn=burn)
        assert seen == [False]

    def test_mixed_spans_beside_constant_columns(self):
        for burn in (0, 1):
            self._compare(np.random.PCG64, 7, (2, 1, 10_000, 2**21), 6, 256, burn)

    @pytest.mark.parametrize("first", (2**53 - 2**21, 2**53 + 1, -(2**62) - 1))
    def test_bounds_beyond_float_precision(self, first):
        # ``2**53 + 1`` has no float64: the sum must round once, like NumPy's
        first = np.full((3, 1), first, dtype=np.int64)
        beyond = first + np.array([[3], [10_000], [2**21]])
        numpy_rng, helper_rng = np.random.default_rng(5), np.random.default_rng(5)
        expected = numpy_rng.integers(first, beyond, size=(8, 3, 256))
        out = np.empty((3, 8, 256))
        integers_into(helper_rng, first, beyond, out)
        assert np.array_equal(out, expected.transpose(1, 0, 2))
        assert _states_equal(
            helper_rng.bit_generator.state, numpy_rng.bit_generator.state
        )

    def test_the_fast_path_runs_at_rspc_sizes(self, monkeypatch):
        """A helper that always fell back would pass every case above."""
        seen = _lemire_spy(monkeypatch)
        subscription = Subscription(
            _schema("discrete"), [0.0] * M, [9_999.0, 1.0, 255.0, 2.0**21 - 1]
        )
        rng = np.random.default_rng(3)
        # groups of 4, 8 and _GROUP_CAP batches
        for batches in (4, 8, _GROUP_CAP):
            subscription.draw_batches(rng, batches, _BATCH_SIZE)
        assert seen == [True, True, True]


class TestKernelDifferential:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", KS)
    def test_sweep_matches_reference(self, kind, k):
        subscription = _subscription(kind)
        seed = 0
        for hole in HOLES:
            candidates = _candidates(kind, k, hole, seed=k)
            for allowed in BUDGETS:
                seed += 1
                expected, got, old_rng, new_rng = _run_both(
                    subscription, candidates, allowed, seed, burn=seed % 2
                )
                _assert_same(expected, got, old_rng, new_rng)
                if expected[0] is not None:
                    assert subscription.contains_point(got[0])
                    assert not any(c.contains_point(got[0]) for c in candidates)

    def test_sweep_reaches_every_witness_position(self):
        """The sweep above would be hollow if every witness fell into the
        first batch; count where they land over many seeds."""
        subscription = _subscription("discrete")
        candidates = _candidates("discrete", 9, RARE, seed=9)
        landed = set()
        for seed in range(100):
            expected, got, old_rng, new_rng = _run_both(
                subscription, candidates, 10_000, seed
            )
            _assert_same(expected, got, old_rng, new_rng)
            if got[0] is None:
                landed.add("none")
                continue
            batch = (got[1] - 1) // _BATCH_SIZE
            # groups hold batches [0], [1, 2], [3..6], [7..14], [15..30],
            # [31..38] and the partial batch 39 of 10 000 = 39 * 256 + 16
            starts = {0: 1, 1: 2, 3: 4, 7: 8, 15: 16, 31: 8, 39: 1}
            start = max(s for s in starts if s <= batch)
            size = starts[start]
            if batch == 0:
                landed.add("first batch")
            elif batch == 39:
                landed.add("partial final batch")
            elif batch == start + size - 1:
                landed.add("last batch of a group")
            else:
                landed.add("mid-group")  # the rollback path
        assert landed >= {
            "first batch",
            "mid-group",
            "last batch of a group",
            "none",
        }

    def test_witness_in_partial_final_batch(self):
        subscription = _subscription("discrete")
        candidates = _candidates("discrete", 9, RARE, seed=9)
        allowed = 3 * _BATCH_SIZE + 100
        hits = 0
        for seed in range(400):
            expected, got, old_rng, new_rng = _run_both(
                subscription, candidates, allowed, seed
            )
            _assert_same(expected, got, old_rng, new_rng)
            hits += got[0] is not None and got[1] > 3 * _BATCH_SIZE
        assert hits

    @pytest.mark.parametrize("kind", ("discrete", "mixed"))
    def test_groups_grow_geometrically_up_to_the_cap(self, kind, monkeypatch):
        drawn = []
        draw = Subscription.draw_batches

        def recording(self, rng, batches, size):
            drawn.append((batches, size))
            return draw(self, rng, batches, size)

        monkeypatch.setattr(Subscription, "draw_batches", recording)
        subscription = _subscription(kind)
        _, _, signed = _signed(_candidates(kind, 9, NEVER, seed=9))
        witness, performed = _guess_witness(
            subscription, signed, np.random.default_rng(0), 10_000
        )
        assert (witness, performed) == (None, 10_000)
        # 39 full batches, then the 16 guesses left over on their own
        assert drawn == [(g, _BATCH_SIZE) for g in (1, 2, 4, 8, 16, 8)] + [(1, 16)]
        assert max(batches for batches, _ in drawn) == _GROUP_CAP

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_rollback_on_every_bit_generator(self, bit_generator):
        subscription = _subscription("mixed")
        candidates = _candidates("mixed", 9, RARE, seed=3)
        lows, highs, signed = _signed(candidates)
        for seed in range(8):
            old_rng = np.random.Generator(bit_generator(seed))
            new_rng = np.random.Generator(bit_generator(seed))
            expected = _reference_guess_witness(
                subscription, lows, highs, old_rng, 10_000
            )
            got = _guess_witness(subscription, signed, new_rng, 10_000)
            _assert_same(expected, got, old_rng, new_rng)


class TestDrawAheadIsInvisible:
    def test_second_check_unchanged_by_the_first_ones_draw_ahead(self):
        """Two RSPC runs on one generator: the first finds its witness
        mid-group (so the kernel had drawn past it), the second must see
        the stream — and reach the verdict — the per-batch loop gives it."""
        subscription = _subscription("discrete")
        rare = _candidates("discrete", 9, RARE, seed=9)
        common = _candidates("discrete", 12, COMMON, seed=12)
        rolled_back = 0
        for seed in range(40):
            old_rng = np.random.default_rng(seed)
            new_rng = np.random.default_rng(seed)
            lows, highs, signed = _signed(rare)
            first_old = _reference_guess_witness(
                subscription, lows, highs, old_rng, 10_000
            )
            first_new = _guess_witness(subscription, signed, new_rng, 10_000)
            _assert_same(first_old, first_new, old_rng, new_rng)
            rolled_back += (
                first_new[0] is not None and first_new[1] > 3 * _BATCH_SIZE
            )
            lows, highs, signed = _signed(common)
            second_old = _reference_guess_witness(
                subscription, lows, highs, old_rng, 2_000
            )
            second_new = _guess_witness(subscription, signed, new_rng, 2_000)
            _assert_same(second_old, second_new, old_rng, new_rng)
        assert rolled_back

    def test_checker_sequence_matches_per_batch_loop(self, monkeypatch):
        """The same through ``SubsumptionChecker.check``: a seeded checker
        deciding a sequence of instances returns the verdicts, witnesses
        and iteration counts it returns with the reference loop patched in."""
        from repro.core import rspc as rspc_module

        subscription = _subscription("discrete")
        instances = [
            _candidates("discrete", k, hole, seed=k)
            for k, hole in ((9, RARE), (12, COMMON), (64, NEVER), (9, RARE), (20, COMMON))
        ]

        def decide():
            checker = SubsumptionChecker(
                delta=1e-6,
                max_iterations=10_000,
                use_mcs=False,
                use_fast_decisions=False,
                rng=11,
            )
            return [checker.check(subscription, candidates) for candidates in instances]

        new = decide()
        monkeypatch.setattr(rspc_module, "_guess_witness", _reference_on_signed)
        old = decide()
        assert [r.method for r in new] == [r.method for r in old]
        assert [r.iterations_performed for r in new] == [
            r.iterations_performed for r in old
        ]
        for got, expected in zip(new, old):
            if expected.witness_point is None:
                assert got.witness_point is None
            else:
                assert np.array_equal(got.witness_point, expected.witness_point)
        methods = {r.method.value for r in new}
        assert methods == {"point_witness", "rspc_exhausted"}


class TestRunRspcBounds:
    def test_bounds_argument_equals_stacking_the_candidates(self):
        subscription = _subscription("mixed")
        candidates = _candidates("mixed", 20, COMMON, seed=5)
        _, _, signed = _signed(candidates)
        plain = run_rspc(subscription, candidates, rho_w=0.02, rng=5)
        fed = run_rspc(subscription, candidates, rho_w=0.02, rng=5, bounds=signed)
        assert plain.outcome is fed.outcome is RSPCOutcome.WITNESS_FOUND
        assert plain.iterations_performed == fed.iterations_performed
        assert np.array_equal(plain.witness_point, fed.witness_point)

    @pytest.mark.parametrize("cut", ("candidate column", "signed axis"))
    def test_bounds_not_describing_the_candidates_raise(self, cut):
        """Both columns cover ``s``; trusting one alone would say "not
        covered", and three of four axes fail to broadcast."""
        schema = Schema.uniform_integer(2, 0, 9)
        s = Subscription(schema, [0, 0], [9, 9])
        candidates = [
            Subscription(schema, [0, 0], [4, 9]),
            Subscription(schema, [5, 0], [9, 9]),
        ]
        full = _signed(candidates)[2]
        bad = full[:, :1] if cut == "candidate column" else full[:3]
        trusted = run_rspc(s, candidates, rho_w=0.5, rng=1)
        assert trusted.outcome is RSPCOutcome.EXHAUSTED
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="bounds must have shape"):
            run_rspc(s, candidates, rho_w=0.5, rng=rng, bounds=bad)
        assert _states_equal(rng.bit_generator.state, state)


# ----------------------------------------------------------------------
# The skip rule: the kernel tests a guess only against the bounds some
# guess can fail (the defined conflict-table entries, bar continuous
# upper bounds); the reference above still tests every bound
# ----------------------------------------------------------------------
def _two_groups(kind, hole, seed):
    """16 boxes in two volume blocks that need different signed axes.

    The wider eight slice attribute 2 and stop ``hole`` short of the top
    of attribute 1; the narrower eight slice attribute 3 and stop at the
    middle of attribute 4.  Together they hold all of ``s`` but the
    guesses in the top slab of attribute 1 *and* the upper half of
    attribute 4.  No box cuts the lower bound of attribute 1.
    """
    rng = np.random.default_rng(seed)
    schema = SCHEMAS[kind]
    edges = np.linspace(0.0, SPAN, 9)
    out = []
    for cut in (1, 2):
        for i in range(8):
            lows = [-5.0] * M
            highs = [SPAN + 5.0] * M
            if cut == 1:
                highs[0] = SPAN - hole if hole else SPAN + 5.0
            else:
                highs[3] = SPAN / 2
            lows[cut] = math.floor(edges[i]) - float(rng.integers(0, 3))
            highs[cut] = math.ceil(edges[i + 1]) + float(rng.integers(0, 40))
            out.append(Subscription(schema, lows, highs))
    return [out[i] for i in rng.permutation(len(out))]


def _block_axes(subscription, candidates):
    return [
        set(axes.tolist())
        for axes, _ in _candidate_blocks(subscription, _signed(candidates)[2])
    ]


def _outcomes_match_reference(subscription, candidates, budgets, seed):
    """Run kernel and reference over ``budgets``; the witnesses found."""
    found = []
    for allowed in budgets:
        seed += 1
        expected, got, old_rng, new_rng = _run_both(
            subscription, candidates, allowed, seed, burn=seed % 2
        )
        _assert_same(expected, got, old_rng, new_rng)
        found.append(got[0] is not None)
    return found


class TestSkipRule:
    @pytest.mark.parametrize("kind", ("discrete", "mixed", "continuous"))
    def test_blocks_with_different_axis_sets(self, kind):
        subscription = _subscription(kind)
        found = []
        for seed, hole in enumerate((NEVER, RARE, COMMON, 4 * COMMON)):
            candidates = _two_groups(kind, hole, seed)
            first, second = _block_axes(subscription, candidates)
            assert first != second
            # no member of either block needs the lower bound of x1
            assert 0 not in first | second
            found += _outcomes_match_reference(
                subscription, candidates, BUDGETS, 100 * seed
            )
        assert any(found) and not all(found)

    @pytest.mark.parametrize("kind", KINDS)
    def test_candidate_containing_s(self, kind):
        subscription = _subscription(kind)
        container = Subscription(SCHEMAS[kind], [-5.0] * M, [SPAN + 5.0] * M)
        for k, hole in ((1, NEVER), (9, RARE), (20, COMMON)):
            candidates = _candidates(kind, k, hole, seed=k)
            candidates.insert(k // 2, container)
            if kind == "discrete":
                # it needs no axis: its block holds every guess
                assert set() in _block_axes(subscription, [container])
            found = _outcomes_match_reference(subscription, candidates, BUDGETS, k)
            assert not any(found)

    @pytest.mark.parametrize("kind", ("discrete", "mixed"))
    def test_candidate_containing_s_exhausts_the_budget(self, kind, monkeypatch):
        from repro.core import rspc as rspc_module

        subscription = _subscription(kind)
        container = Subscription(SCHEMAS[kind], [-5.0] * M, [SPAN + 5.0] * M)
        candidates = _candidates(kind, 9, COMMON, seed=9) + [container]

        def run_direct():
            rng = np.random.default_rng(21)
            result = run_rspc(
                subscription, candidates, rho_w=0.001, rng=rng, max_iterations=3000
            )
            return result, rng.bit_generator.state

        def run_checker():
            rng = np.random.default_rng(21)
            # without MCS, which would keep the container alone
            checker = SubsumptionChecker(
                delta=1e-6,
                max_iterations=3000,
                use_mcs=False,
                use_fast_decisions=False,
                rng=rng,
            )
            result = checker.check(subscription, candidates)
            return result, rng.bit_generator.state

        new = (run_direct(), run_checker())
        monkeypatch.setattr(rspc_module, "_guess_witness", _reference_on_signed)
        old = (run_direct(), run_checker())
        (direct, direct_state), (checked, checked_state) = new
        assert direct.outcome is RSPCOutcome.EXHAUSTED
        assert direct.iterations_performed == direct.iterations_allowed == 3000
        assert checked.method.value == "rspc_exhausted"
        assert checked.iterations_performed == 3000
        assert _states_equal(direct_state, old[0][1])
        assert _states_equal(checked_state, old[1][1])
        assert old[1][0].iterations_performed == 3000

    @pytest.mark.parametrize("kind", ("discrete", "mixed"))
    def test_fractional_discrete_bounds_fed_raw(self, kind):
        """Raw (unsnapped) fractional bounds on the discrete attributes,
        some just inside and some just outside ``s``'s ticks."""
        schema = SCHEMAS[kind]
        # attribute 4 is discrete in both schemas and narrow: ticks 0..30
        subscription = Subscription(schema, [0.5, 0, 0.25, 0], [SPAN, SPAN, SPAN, 30.6])
        rng = np.random.default_rng(4)
        found = []
        for k in (5, 9, 17):
            candidates = []
            for c in _candidates(kind, k, NEVER, seed=k):
                lows, highs = c.lows.copy(), c.highs.copy()
                lows[0] = 0.5 + rng.choice((-0.4, -0.2, 0.0, 0.3))
                lows[3] = rng.choice((-0.6, -0.2, 0.2, 0.6))
                highs[3] = 30 + rng.choice((-0.6, -0.2, 0.2, 0.6, 0.9))
                candidates.append(Subscription(schema, lows, highs))
            found += _outcomes_match_reference(
                subscription, candidates, (1, 256, 1000, 10_000), k
            )
            raw = _signed(candidates)[2]
            plain = run_rspc(subscription, candidates, rho_w=0.001, rng=k)
            fed = run_rspc(subscription, candidates, rho_w=0.001, rng=k, bounds=raw)
            assert plain.outcome is fed.outcome
            assert plain.iterations_performed == fed.iterations_performed
            if plain.witness_point is not None:
                assert np.array_equal(plain.witness_point, fed.witness_point)
        assert any(found) and not all(found)

    def test_only_continuous_upper_bounds_defined(self):
        """Boxes wider than ``s`` everywhere except the upper bounds of
        the continuous attributes, which are kept though some equal
        ``s``'s own."""
        subscription = _subscription("mixed")
        schema = SCHEMAS["mixed"]
        found = []
        for seed, hole in enumerate((COMMON, 5 * COMMON)):
            tops = (
                (SPAN - hole, SPAN + 5.0),
                (SPAN + 5.0, SPAN - hole),
                (SPAN, SPAN - hole),
            )
            candidates = [
                Subscription(schema, [-5.0] * M, [SPAN + 5.0, *top, SPAN + 5.0])
                for top in tops
            ]
            for axes in _block_axes(subscription, candidates):
                assert axes == {M + 1, M + 2}
            found += _outcomes_match_reference(
                subscription, candidates, BUDGETS, 10 * seed
            )
            # the same with a box equal to ``s`` on the continuous tops
            candidates.append(
                Subscription(schema, [-5.0] * M, [SPAN + 5.0, SPAN, SPAN, SPAN + 5.0])
            )
            assert not any(
                _outcomes_match_reference(subscription, candidates, BUDGETS, seed)
            )
        assert any(found) and not all(found)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounds_equal_to_s(self, kind):
        """Candidates clipped to ``s``: every bound they do not cut equals
        ``s``'s own, and one candidate is ``s`` itself."""
        subscription = _subscription(kind)
        found = []
        for k, hole in ((1, NEVER), (9, RARE), (12, COMMON)):
            candidates = [
                Subscription(
                    SCHEMAS[kind],
                    np.maximum(c.lows, subscription.lows),
                    np.minimum(c.highs, subscription.highs),
                )
                for c in _candidates(kind, k, hole, seed=k)
            ]
            found += _outcomes_match_reference(subscription, candidates, BUDGETS, k)
            itself = Subscription(SCHEMAS[kind], subscription.lows, subscription.highs)
            assert not any(
                _outcomes_match_reference(
                    subscription, candidates + [itself], BUDGETS, 2 * k
                )
            )
        assert any(found) and not all(found)


# ----------------------------------------------------------------------
# The word path: an all-discrete box drawn from a PCG64 guesses in word
# space — each group's raw 32-bit words tested against per-candidate
# uint32 thresholds — and falls back to value space from the run's
# saved state when Lemire's rule rejects a word.  The reference above
# is still the oracle.
# ----------------------------------------------------------------------
WIDE = Schema(
    [Attribute(f"x{j + 1}", IntegerDomain(-(2**22), 2**22)) for j in range(M)],
    name="wide",
)


def _word_runs(monkeypatch):
    """Record what each word-space run returned (``None``: a rejected
    word sent it to value space)."""
    from repro.core import rspc as rspc_module

    seen = []
    guess = rspc_module._guess_in_words

    def spy(*args):
        seen.append(guess(*args))
        return seen[-1]

    monkeypatch.setattr(rspc_module, "_guess_in_words", spy)
    return seen


def _slab_candidates(schema, span, k, hole, seed):
    """``k`` boxes holding all of ``[0, span - 1]^M`` but a slab ``hole``
    ticks wide at the top of attribute 1 (``_candidates`` on other ranges)."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.0, span, k + 1)
    out = []
    for i in range(k):
        lows = [-5.0] * M
        highs = [span + 5.0] * M
        highs[0] = span - 1 - hole if hole else span + 5.0
        lows[1] = math.floor(edges[i]) - float(rng.integers(0, 3))
        highs[1] = math.ceil(edges[i + 1]) + float(rng.integers(0, 40))
        out.append(Subscription(schema, lows, highs))
    return [out[i] for i in rng.permutation(k)]


def _rejected(words, span):
    """How many of the 32-bit ``words`` Lemire's rule rejects for ``span``."""
    words = words.astype(np.uint64)
    return int(((words * span) % 2**32 < (2**32 - span) % span).sum())


class TestWordPath:
    def test_groups_grow_geometrically_in_word_space(self, monkeypatch):
        from repro.utils.rng import _RangeWords

        drawn = []
        draw = _RangeWords.draw

        def recording(self, batches, size):
            drawn.append((batches, size))
            return draw(self, batches, size)

        monkeypatch.setattr(_RangeWords, "draw", recording)
        runs = _word_runs(monkeypatch)
        subscription = _subscription("discrete")
        candidates = _candidates("discrete", 9, NEVER, seed=9)
        # seed 1 draws no rejected word in 40 000 (seed 0 does, in group 6)
        expected, got, old_rng, new_rng = _run_both(subscription, candidates, 10_000, 1)
        _assert_same(expected, got, old_rng, new_rng)
        assert runs == [(None, 10_000)]
        assert drawn == [(g, _BATCH_SIZE) for g in (1, 2, 4, 8, 16, 8)] + [(1, 16)]

    @pytest.mark.parametrize("burn", (0, 1, 3))
    def test_a_rejected_word_restarts_the_run_in_value_space(self, burn, monkeypatch):
        """x1 spans just under 2**21 with a Lemire threshold near the span:
        about one of its words in 2 000 is rejected.  A run that drew no
        rejected word finishes in word space; one that drew any restarts."""
        span = 2_096_129
        assert (2**32 - span) % span > 0.99 * span
        subscription = Subscription(WIDE, [0] * M, [span - 1] + [SPAN] * (M - 1))
        spans = [span] + [int(SPAN) + 1] * (M - 1)
        candidates = _slab_candidates(WIDE, span, 9, 0, seed=4)
        runs = _word_runs(monkeypatch)
        outcomes = []
        budgets = (1025, 1100, 1300, 1500, 1800, 2000, 2500, 3000)
        for seed, allowed in enumerate(budgets):
            expected, got, old_rng, new_rng = _run_both(
                subscription, candidates, allowed, seed, burn=burn
            )
            _assert_same(expected, got, old_rng, new_rng)
            assert got == (None, allowed) and len(runs) == seed + 1
            # the words the run took, batch by batch and column by column
            rng = np.random.default_rng(seed)
            rng.integers(0, 10, size=burn, dtype=np.uint32)
            halves = rng.bit_generator.random_raw(M * allowed).view(np.uint32)
            start, rejected = burn % 2, 0
            for first in range(0, allowed, _BATCH_SIZE):
                size = min(_BATCH_SIZE, allowed - first)
                for column in spans:
                    rejected += _rejected(halves[start : start + size], column)
                    start += size
            outcomes.append((rejected > 0, runs[-1] is None))
        assert all(hit == fell_back for hit, fell_back in outcomes)
        assert {hit for hit, _ in outcomes} == {False, True}

    def test_runs_of_four_batches_or_fewer_stay_in_value_space(self, monkeypatch):
        runs = _word_runs(monkeypatch)
        subscription = _subscription("discrete")
        candidates = _candidates("discrete", 9, NEVER, seed=9)
        for allowed in (1, 256, _WORD_MIN_GUESSES, _WORD_MIN_GUESSES + 1):
            expected, got, old_rng, new_rng = _run_both(
                subscription, candidates, allowed, 2
            )
            _assert_same(expected, got, old_rng, new_rng)
        assert _WORD_MIN_GUESSES == 4 * _BATCH_SIZE
        assert runs == [(None, _WORD_MIN_GUESSES + 1)]

    @pytest.mark.parametrize("burn", (0, 1))
    def test_one_value_axes_draw_no_word(self, burn, monkeypatch):
        runs = _word_runs(monkeypatch)
        subscription = Subscription(
            SCHEMAS["discrete"], [0, 7, 0, -3], [SPAN, 7, SPAN, -3]
        )
        base = _candidates("discrete", 9, RARE, seed=9)
        found = []
        for cut in (None, "below", "above", "tight"):
            candidates = list(base)
            if cut is not None:
                # a box wide but on the one-value axis 2
                lows, highs = [-5.0] * M, [SPAN + 5.0] * M
                lows[1], highs[1] = {
                    "below": (-10.0, 6.5),
                    "above": (7.5, 20.0),
                    "tight": (7.0, 7.0),
                }[cut]
                candidates.append(Subscription(SCHEMAS["discrete"], lows, highs))
            for seed, allowed in enumerate(BUDGETS):
                expected, got, old_rng, new_rng = _run_both(
                    subscription, candidates, allowed, seed, burn=burn
                )
                _assert_same(expected, got, old_rng, new_rng)
                found.append(got[0] is not None)
            if cut == "tight":
                assert not any(found[-len(BUDGETS) :])
        assert runs and None not in runs
        assert any(found) and not all(found)

    @pytest.mark.parametrize("inside", (True, False))
    def test_a_one_point_box(self, inside, monkeypatch):
        """Every axis one-valued: the run draws no word at all."""
        runs = _word_runs(monkeypatch)
        subscription = Subscription(SCHEMAS["discrete"], [3, 7, 0, -3], [3, 7, 0, -3])
        high = 3.0 if inside else 2.0
        lows, highs = [0.0, 0.0, 0.0, -9.0], [high, 9.0, 9.0, 9.0]
        candidates = [Subscription(SCHEMAS["discrete"], lows, highs)]
        for burn in (0, 1):
            expected, got, old_rng, new_rng = _run_both(
                subscription, candidates, 2000, 5, burn=burn
            )
            _assert_same(expected, got, old_rng, new_rng)
            assert got[1] == (2000 if inside else 1)
        assert len(runs) == 2 and None not in runs

    def test_witness_positions_in_word_space(self, monkeypatch):
        """The witness in the first batch, mid-group (the later batches'
        words given back), in a group's last batch, in a partial last
        batch, or nowhere — every run finishing in word space."""
        runs = _word_runs(monkeypatch)
        subscription = _subscription("discrete")
        candidates = _candidates("discrete", 9, RARE, seed=9)
        landed = set()
        short = 7 * _BATCH_SIZE + 100
        for allowed, seeds in ((10_000, range(1, 80)), (short, range(200))):
            for seed in seeds:
                before = len(runs)
                expected, got, old_rng, new_rng = _run_both(
                    subscription, candidates, allowed, seed, burn=seed % 2
                )
                _assert_same(expected, got, old_rng, new_rng)
                assert len(runs) == before + 1
                if runs[-1] is None:
                    continue
                if got[0] is None:
                    landed.add("none")
                    continue
                batch = (got[1] - 1) // _BATCH_SIZE
                # groups: [0], [1, 2], [3..6], [7..14], ...; at the short
                # budget [0], [1, 2], [3..6] and the partial batch 7
                if batch == 0:
                    landed.add("first batch")
                elif got[1] > allowed // _BATCH_SIZE * _BATCH_SIZE:
                    landed.add("partial last batch")
                elif batch in (2, 6, 14):
                    landed.add("last batch of a group")
                else:
                    landed.add("mid-group")
        assert landed == {
            "first batch",
            "mid-group",
            "last batch of a group",
            "partial last batch",
            "none",
        }

    @pytest.mark.parametrize("hole", (NEVER, COMMON))
    def test_nan_columns_hold_no_guess(self, hole, monkeypatch):
        runs = _word_runs(monkeypatch)
        subscription = _subscription("discrete")
        _, _, signed = _signed(_candidates("discrete", 12, hole, seed=12))
        # a column that would hold all of ``s``, tombstoned
        whole = np.array([-5.0] * M + [-(SPAN + 5.0)] * M)
        tombstones = [whole.copy() for _ in range(3)]
        tombstones[0][:] = np.nan
        tombstones[1][2] = np.nan
        tombstones[2][M + 1] = np.nan
        for columns in (signed, np.full_like(signed, np.nan)):
            fed = np.concatenate((columns, np.array(tombstones).T), axis=1)
            for seed, allowed in enumerate(BUDGETS):
                old_rng = np.random.default_rng(seed)
                new_rng = np.random.default_rng(seed)
                expected = _reference_on_signed(subscription, fed, old_rng, allowed)
                got = _guess_witness(subscription, fed, new_rng, allowed)
                _assert_same(expected, got, old_rng, new_rng)
            # nothing holds a guess: the first one is a witness
            assert columns is signed or got[1] == 1
        assert runs and None not in runs

    def test_raw_candidates_wholly_outside_s(self, monkeypatch):
        from repro.core.rspc import _word_thresholds
        from repro.utils.rng import integer_words

        runs = _word_runs(monkeypatch)
        subscription = _subscription("discrete")
        outside = [
            ([SPAN + 0.5, -5.0, -5.0, -5.0], [SPAN + 9.0] * M),  # above x1
            ([-5.0] * M, [SPAN + 5.0, -0.5, SPAN + 5.0, SPAN + 5.0]),  # below x2
            ([-5.0] * M, [SPAN + 5.0] * 3 + [-1e300]),  # far below x4
            ([-5.0, -5.0, 1e300, -5.0], [SPAN + 5.0] * 2 + [np.inf, SPAN + 5.0]),
        ]
        rows = [(np.array(lows), np.array(highs)) for lows, highs in outside]
        extra = np.array([np.concatenate((lows, -highs)) for lows, highs in rows]).T
        for hole in (NEVER, RARE, COMMON):
            _, _, signed = _signed(_candidates("discrete", 9, hole, seed=3))
            fed = np.concatenate((extra[:, :2], signed, extra[:, 2:]), axis=1)
            ((_, _, _, first, beyond),) = subscription.sampling_plan()
            words = integer_words(np.random.default_rng(0), first, beyond)
            assert _word_thresholds(fed, words).shape == (2 * M, signed.shape[1])
            for seed, allowed in enumerate(BUDGETS):
                old_rng = np.random.default_rng(seed)
                new_rng = np.random.default_rng(seed)
                expected = _reference_on_signed(subscription, fed, old_rng, allowed)
                got = _guess_witness(subscription, fed, new_rng, allowed)
                _assert_same(expected, got, old_rng, new_rng)
        assert runs and None not in runs

    @pytest.mark.parametrize("span, word_path", ((2**21, True), (2**21 + 1, False)))
    def test_the_widest_span_the_word_path_takes(self, span, word_path, monkeypatch):
        runs = _word_runs(monkeypatch)
        lows, highs = [0.0] * M, [SPAN] * M
        highs[2] = span - 1.0
        subscription = Subscription(WIDE, lows, highs)
        # three boxes stopping short of the top 3 000 ticks of x3
        top = span - 3001.0
        candidates = [
            Subscription(WIDE, [-5.0, -5.0, low, -5.0], [SPAN, SPAN, high, SPAN])
            for low, high in ((-5.0, span / 2), (-5.0, top), (span / 3, top))
        ]
        found = []
        for seed, allowed in enumerate(BUDGETS):
            expected, got, old_rng, new_rng = _run_both(
                subscription, candidates, allowed, seed, burn=seed % 2
            )
            _assert_same(expected, got, old_rng, new_rng)
            found.append(got[0] is not None)
        assert bool(runs) is word_path
        assert any(found) and not all(found)


class TestWordThresholds:
    """``_word_thresholds`` computes ``ceil(n * 2**32 / span)`` (a lower
    bound ``n`` ticks above ``first``) and ``floor(n * 2**32 / span)`` (an
    upper bound ``n`` ticks below ``last``) in float64; both must equal
    integer floor division, and ``n = span`` must leave the box no guess."""

    @staticmethod
    def _thresholds(first, span, offsets, fraction=0.0):
        from repro.core.rspc import _word_thresholds
        from repro.utils.rng import integer_words

        first_ = np.array([[first]], dtype=np.int64)
        words = integer_words(np.random.default_rng(0), first_, first_ + span)
        last = first + span - 1
        offsets = np.asarray(offsets, dtype=np.int64)
        # a fractional bound snaps to the same tick: ``ceil(low)``, ``floor(high)``
        lows = np.vstack((first + offsets - fraction, np.full(len(offsets), -last)))
        highs = np.vstack((np.full(len(offsets), first), -(last - offsets + fraction)))
        return _word_thresholds(lows, words), _word_thresholds(highs, words)

    @staticmethod
    def _expected(span, offsets):
        shifted = np.asarray(offsets, dtype=np.int64) << 32
        # int64 floor division is exact here: ``offset << 32 < 2**53``
        return -(-shifted // span), shifted // span

    @pytest.mark.parametrize("span", (2, 3, 2**21 - 1, 2**21))
    @pytest.mark.parametrize("first", (0, -7, 2**40 + 3))
    def test_every_offset(self, span, first):
        for fraction in (0.0, 0.5):
            for start in range(0, span, 1 << 18):
                offsets = np.arange(start, min(start + (1 << 18), span))
                lows, highs = self._thresholds(first, span, offsets, fraction)
                up, down = self._expected(span, offsets)
                assert lows.dtype == highs.dtype == np.uint32
                assert np.array_equal(lows[0], up)
                assert np.array_equal(highs[1], down)
                # the other bound is ``s``'s own: an undefined entry
                assert not lows[1].any() and not highs[0].any()
            # ``span`` ticks in, no tick is left
            lows, highs = self._thresholds(first, span, [span, span + 1], fraction)
            assert lows.shape == highs.shape == (2, 0)

    def test_random_spans_and_offsets(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            span = int(rng.integers(2, 2**21 + 1))
            first = int(rng.integers(-(2**45), 2**45))
            offsets = rng.integers(0, span, size=256)
            lows, highs = self._thresholds(first, span, offsets)
            # against Python integers
            assert lows[0].tolist() == [-(-(n << 32) // span) for n in offsets.tolist()]
            assert highs[1].tolist() == [(n << 32) // span for n in offsets.tolist()]
