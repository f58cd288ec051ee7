"""``repro.utils.rng.scalar_draws`` against the NumPy calls it stands for.

``draws.random()`` is ``rng.random()`` and ``draws.integer(first, span)``
is ``int(rng.integers(first, first + span))``.  On a ``PCG64`` both are
computed from words read ahead with ``random_raw``; every test compares
the values, the whole ``bit_generator.state`` on leaving the block
(``has_uint32`` and ``uinteger`` included) and the draws after it with
a twin generator that made NumPy's own calls.
"""

import numpy as np
import pytest

from repro.utils import rng as rng_module
from repro.utils.rng import scalar_draws

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)

#: 1 takes no word; 2**32 - 1 is the widest span of the 32-bit rule;
#: 2**32 is NumPy's call
SPANS = (1, 2, 6, 40, 2**21 + 1, 2**31, 2**32 - 1, 2**32)


def states_equal(first, second):
    """``bit_generator.state`` equality (MT19937 keeps its key in an array)."""
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(
            states_equal(first[key], second[key]) for key in first
        )
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    return first == second


def twins(bit_generator, seed, buffered):
    """Two generators in the same state; ``buffered`` leaves half a 64-bit
    word in the 32-bit buffer (``has_uint32`` set on a PCG64)."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in pair:
        rng.integers(0, 10, size=buffered, dtype=np.uint32)
    return pair


def numpy_draw(rng, op):
    """NumPy's call for one ``("random",)`` or ``("integer", first, span)``."""
    if op[0] == "random":
        return rng.random()
    _, first, span = op
    return int(rng.integers(first, first + span))


def helper_draw(draws, op):
    return draws.random() if op[0] == "random" else draws.integer(*op[1:])


def assert_same_afterwards(helper_rng, numpy_rng):
    assert states_equal(helper_rng.bit_generator.state, numpy_rng.bit_generator.state)
    # and the streams stay together afterwards
    assert helper_rng.integers(0, 2**62) == numpy_rng.integers(0, 2**62)
    assert helper_rng.integers(0, 7) == numpy_rng.integers(0, 7)
    assert helper_rng.random() == numpy_rng.random()


def compare(bit_generator, seed, buffered, ops):
    numpy_rng, helper_rng = twins(bit_generator, seed, buffered)
    expected = [numpy_draw(numpy_rng, op) for op in ops]
    with scalar_draws(helper_rng) as draws:
        got = [helper_draw(draws, op) for op in ops]
    assert got == expected
    assert all(type(value) is type(other) for value, other in zip(got, expected))
    assert_same_afterwards(helper_rng, numpy_rng)


def mixed_ops(seed, count, spans=SPANS):
    """``count`` draws, a third of them doubles, the rest integers of
    random spans and offsets."""
    plan = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        if plan.random() < 1 / 3:
            ops.append(("random",))
        else:
            span = spans[plan.integers(len(spans))]
            ops.append(("integer", int(plan.integers(-(2**40), 2**40)), span))
    return ops


class TestScalarDraws:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", (0, 1))
    @pytest.mark.parametrize("span", SPANS)
    def test_one_span(self, bit_generator, buffered, span):
        ops = [("integer", -7, span)] * 25 + [("random",)] + [("integer", 3, span)] * 4
        compare(bit_generator, 2006 + buffered, buffered, ops)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", (0, 1))
    def test_interleaved_draws(self, bit_generator, buffered):
        compare(bit_generator, 11, buffered, mixed_ops(buffered, 400))

    @pytest.mark.parametrize("buffered", (0, 1))
    def test_a_single_draw_and_none(self, buffered):
        for ops in ([], [("random",)], [("integer", 0, 40)], [("integer", 5, 1)]):
            compare(np.random.PCG64, 3, buffered, ops)

    @pytest.mark.parametrize("buffered", (0, 1))
    def test_a_rejected_draw_is_drawn_again(self, buffered):
        # the range most likely to reject a 32-bit draw (2**32 mod span is
        # just below span): draws 630, 1187 and 3056 of PCG64(0) are rejected
        span = 2_096_129
        words = np.random.PCG64(0).random_raw(1536).view(np.uint32).tolist()
        threshold = (2**32 - span) % span
        assert [i for i, u in enumerate(words) if u * span % 2**32 < threshold] == [
            630,
            1187,
            3056,
        ]
        compare(np.random.PCG64, 0, buffered, [("integer", 0, span)] * 3_100)

    @pytest.mark.parametrize("buffered", (0, 1))
    def test_runs_across_read_ahead_chunks(self, buffered):
        chunk = rng_module._CHUNK_WORDS
        # whole words only, half words only, and both, each several chunks
        compare(np.random.PCG64, 5, buffered, [("random",)] * (3 * chunk + 1))
        compare(np.random.PCG64, 5, buffered, [("integer", 0, 6)] * (5 * chunk + 3))
        compare(np.random.PCG64, 5, buffered, mixed_ops(7, 4 * chunk))
        # a run that ends exactly at a chunk's end
        compare(np.random.PCG64, 5, 0, [("random",)] * chunk)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("buffered", (0, 1))
    @pytest.mark.parametrize("taken", (0, 1, 2, 3, 200))
    def test_an_early_exit_hands_back_what_was_taken(
        self, bit_generator, buffered, taken
    ):
        ops = mixed_ops(taken, taken)
        numpy_rng, helper_rng = twins(bit_generator, 17, buffered)
        expected = [numpy_draw(numpy_rng, op) for op in ops]
        got = []
        with pytest.raises(KeyError):
            with scalar_draws(helper_rng) as draws:
                for op in ops:
                    got.append(helper_draw(draws, op))
                raise KeyError("leave the block early")
        assert got == expected
        assert_same_afterwards(helper_rng, numpy_rng)

    def test_a_generator_closed_early_hands_back_what_was_taken(self):
        """Compilation's steady state draws inside a generator that may be
        dropped before it is exhausted."""

        def rolls(rng):
            with scalar_draws(rng) as draws:
                while True:
                    yield draws.integer(0, 40), draws.random()

        numpy_rng, helper_rng = twins(np.random.PCG64, 23, 1)
        stream = rolls(helper_rng)
        got = [next(stream) for _ in range(101)]
        stream.close()
        expected = [
            (int(numpy_rng.integers(0, 40)), numpy_rng.random()) for _ in range(101)
        ]
        assert got == expected
        assert_same_afterwards(helper_rng, numpy_rng)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("span", (0, -3))
    def test_an_empty_range_raises_numpy_s_error(self, bit_generator, span):
        numpy_rng, helper_rng = twins(bit_generator, 29, 1)
        with pytest.raises(ValueError) as numpy_error:
            numpy_rng.integers(4, 4 + span)
        with pytest.raises(ValueError) as helper_error:
            with scalar_draws(helper_rng) as draws:
                draws.random()
                draws.integer(4, span)
        assert str(helper_error.value) == str(numpy_error.value)
        numpy_rng.random()
        assert_same_afterwards(helper_rng, numpy_rng)

    def test_a_pcg64_is_drawn_from_its_words(self):
        """A helper that made NumPy's calls would pass every case above."""

        class CountingGenerator(np.random.Generator):
            calls = 0

            def random(self, *args, **kwargs):
                CountingGenerator.calls += 1
                return super().random(*args, **kwargs)

            def integers(self, *args, **kwargs):
                CountingGenerator.calls += 1
                return super().integers(*args, **kwargs)

        ops = mixed_ops(3, 1_000, spans=SPANS[:-1])
        rng = CountingGenerator(np.random.PCG64(31))
        with scalar_draws(rng) as draws:
            for op in ops:
                helper_draw(draws, op)
        assert CountingGenerator.calls == 0
        # a span of 2**32 is NumPy's call, made where the words left off
        with scalar_draws(rng) as draws:
            draws.integer(0, 2**32)
            draws.random()
        assert CountingGenerator.calls == 1
