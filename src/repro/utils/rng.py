"""Random-number helpers.

Every stochastic component of the library (the RSPC point guesser, the
workload generators, the broker simulator) accepts either a seed or a
:class:`numpy.random.Generator` so experiments are reproducible end to end.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from operator import add, length_hint
from typing import Iterator, List, Optional, Union

import numpy as np

__all__ = [
    "RandomSource",
    "ensure_rng",
    "integer_words",
    "integers_into",
    "scalar_draws",
    "spawn_rngs",
]

#: Anything that can act as a source of randomness.
RandomSource = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(source: RandomSource = None) -> np.random.Generator:
    """Coerce ``source`` into a :class:`numpy.random.Generator`.

    ``None`` produces a non-deterministic generator, an integer seeds a new
    generator, and an existing generator is returned unchanged.
    """
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, np.random.SeedSequence):
        return np.random.default_rng(source)
    return np.random.default_rng(source)


def spawn_rngs(source: RandomSource, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from a single source.

    Used to give each broker / workload stream its own stream without
    cross-correlation, while keeping the whole experiment reproducible from
    one seed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(source, np.random.Generator):
        seeds = source.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(seed)) for seed in seeds]
    sequence = (
        source
        if isinstance(source, np.random.SeedSequence)
        else np.random.SeedSequence(source)
    )
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


#: Widest range the vectorised draw takes: ``u * span < 2**53`` for every
#: 32-bit word ``u``, so ``floor(u * (span * 2**-32))`` is exact in float64.
_EXACT_SPAN = 1 << 21

#: Fewest 32-bit words the vectorised draw takes.  Below it the fixed cost
#: of the ``bit_generator.state`` round trip and a dozen array operations
#: outweighs what it saves on NumPy's per-element loop.  On a 2-core
#: x86-64 VM the two break even near 1 500 words in isolation, but near
#: 2 000-4 000 inside the benchmark's workloads (timed call by call in
#: place, alternating the paths), where every small array operation
#: costs two to three times more.
_KERNEL_MIN_WORDS = 4096

_LITTLE_ENDIAN = sys.byteorder == "little"

#: Words a scalar draw reads ahead of a ``PCG64`` at a time.  Converting
#: words to Python integers costs some 25 ns a word in bulk, so a short
#: run of draws must not read far ahead; at 64 words a read costs 2 us
#: on a 2-core x86-64 VM, a word 33 ns, and a long run never holds its
#: words whole.
_CHUNK_WORDS = 64

#: The value of a word's top 53 bits as a fraction of one.
_DOUBLE_UNIT = 2.0**-53

#: Spans Lemire's 32-bit rule serves; wider ones take NumPy's call.
_HALF_SPAN = 1 << 32


def integers_into(
    rng: np.random.Generator,
    first: np.ndarray,
    beyond: np.ndarray,
    out: np.ndarray,
) -> None:
    """Fill the float ``(m, batches, size)`` block ``out`` with
    ``rng.integers(first, beyond, size=(batches, m, size)).transpose(1, 0, 2)``.

    ``first`` and ``beyond`` are int64 bounds of shape ``(m, 1)``.  The
    values and the generator state afterwards (``has_uint32`` and
    ``uinteger`` included) are exactly NumPy's.  For a range of ``span``
    values NumPy runs Lemire's rule on 32-bit words one element at a
    time: the value is ``(u * span) >> 32`` for the next word ``u``,
    unless ``(u * span) mod 2**32 < (2**32 - span) % span``, which
    rejects ``u`` and takes another word; a range of one value draws no
    word.  On a ``PCG64`` a large draw is one ``random_raw`` call
    (:meth:`_RangeWords.draw`) and array arithmetic on the same words.  The
    call is NumPy's own when the generator is not a ``PCG64``, the host is
    big-endian, a range exceeds ``2**21`` values, a bound exceeds
    ``2**53`` in magnitude, the draw takes fewer than
    ``_KERNEL_MIN_WORDS`` words, or a word is rejected (the state is
    restored first).
    """
    m, batches, size = out.shape
    bit_generator = rng.bit_generator
    if not (
        m * batches * size >= _KERNEL_MIN_WORDS
        and _LITTLE_ENDIAN
        and type(bit_generator) is np.random.PCG64
        and _lemire_into(bit_generator, first, beyond, out)
    ):
        out[...] = rng.integers(first, beyond, size=(batches, m, size)).transpose(
            1, 0, 2
        )


def _lemire_into(bit_generator, first, beyond, out) -> bool:
    """The vectorised half of :func:`integers_into`; ``False``, with the
    generator state as it was, when NumPy's call must run instead."""
    _, batches, size = out.shape
    span = beyond - first
    live = (span > 1).sum()
    if live * batches * size < _KERNEL_MIN_WORDS or not _exact_ranges(span, first):
        return False
    source = _RangeWords(bit_generator, first, span)
    u = source.draw(batches, size)
    if u is None:
        return False
    source.fill(u, out)
    source.hand_back()
    return True


def _exact_ranges(span: np.ndarray, first: np.ndarray) -> bool:
    """Whether the word arithmetic serves ranges of ``span`` values from
    ``first`` exactly: each holds 1 to ``2**21`` values, and no bound
    exceeds ``2**53`` in magnitude (so each is a float64, and a sum
    rounds once)."""
    spans = span.ravel().tolist()
    firsts = first.ravel().tolist()
    return (
        min(spans) >= 1
        and max(spans) <= _EXACT_SPAN
        and min(firsts) >= -(1 << 53)
        and max(map(add, firsts, spans)) <= 1 << 53
    )


def integer_words(
    rng: np.random.Generator, first: np.ndarray, beyond: np.ndarray
) -> Optional["_RangeWords"]:
    """A reader of the words behind ``rng.integers(first, beyond, ...)``
    draws (:class:`_RangeWords`), or ``None`` where the words cannot stand
    for them: ``rng`` is not a ``PCG64``, the host is big-endian, or a
    range is not one the word arithmetic serves exactly (1 to ``2**21``
    values, bounds within ``2**53``).
    """
    bit_generator = rng.bit_generator
    if _LITTLE_ENDIAN and type(bit_generator) is np.random.PCG64:
        span = beyond - first
        if _exact_ranges(span, first):
            return _RangeWords(bit_generator, first, span)
    return None


class _Words:
    """The 64-bit words of a ``PCG64``, read ahead and handed back.

    The one place that knows how NumPy consumes a ``PCG64`` and how its
    ``bit_generator.state`` records it.  A double or a 64-bit draw takes a
    whole word.  A 32-bit draw takes the half word the state buffers
    (``has_uint32`` set, the half in ``uinteger``) if there is one;
    otherwise it takes the low half of the next word and buffers the high
    half.  Taking the buffered half clears ``has_uint32`` but leaves
    ``uinteger`` as it was.  ``has_uint32`` and ``uinteger`` here follow
    the draws made from the words read ahead; :meth:`hand_back` leaves
    the generator just past the words taken, with that buffer, which is
    exactly where NumPy's own calls would leave it.
    """

    def __init__(self, bit_generator):
        self._bit_generator = bit_generator
        self.start()

    def start(self) -> None:
        """Start reading ahead from where the generator is now."""
        self._saved = self._bit_generator.state
        self.has_uint32 = self._saved["has_uint32"]
        self.uinteger = self._saved["uinteger"]
        #: words read from the generator, and those of them not taken:
        #: read ahead by :meth:`word`, or given back by :meth:`unread`
        self._fetched = 0
        self._unused = iter(())
        self._spare = 0
        #: the last :meth:`halves` call: its count, the buffer before it
        #: and the words it read
        self._last = (0, 0, 0, None)

    def fetch(self, count: int) -> np.ndarray:
        """Read ``count`` more words ahead (the generator moves past them)."""
        raw = self._bit_generator.random_raw(count)
        self._fetched += count
        return raw

    def word(self) -> int:
        """Take the next word, reading :data:`_CHUNK_WORDS` ahead when the
        words read so far are all taken."""
        word = next(self._unused, None)
        if word is None:
            self._unused = iter(self.fetch(_CHUNK_WORDS).tolist())
            word = next(self._unused)
        return word

    def half(self) -> int:
        """Take the next 32-bit draw."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self.word()
        self.has_uint32 = 1
        self.uinteger = word >> 32
        return word & 0xFFFFFFFF

    def halves(self, count: int) -> np.ndarray:
        """Take the next ``count`` 32-bit draws at once, as a ``uint32``
        array: a little-endian host's view of words read straight from
        the generator, so no word read ahead may be left untaken."""
        if not count:
            return np.empty(0, np.uint32)
        fresh = count - self.has_uint32
        raw = self.fetch((fresh + 1) // 2)
        self._last = (count, self.has_uint32, self.uinteger, raw)
        stream = raw.view(np.uint32)
        if self.has_uint32:
            stream = np.concatenate((np.array([self.uinteger], np.uint32), stream))
        self.has_uint32 = fresh % 2
        if len(raw):
            self.uinteger = int(raw[-1]) >> 32
        return stream[:count]

    def unread(self, count: int) -> None:
        """Give back the last ``count`` draws of the last :meth:`halves`
        call: :meth:`hand_back` leaves the generator before them."""
        if not count:
            return
        taken, buffered, uinteger, raw = self._last
        fresh = taken - count - buffered
        if fresh <= 0:
            # at most the buffered half stays taken; no word read is
            self.has_uint32 = -fresh
            self.uinteger = uinteger
            words = 0
        else:
            words = (fresh + 1) // 2
            self.has_uint32 = fresh % 2
            self.uinteger = int(raw[words - 1]) >> 32
        self._spare += len(raw) - words

    def rewind(self) -> None:
        """Put the generator back where it was; nothing is taken."""
        self._bit_generator.state = self._saved

    def hand_back(self) -> None:
        """Leave the generator where NumPy's calls for the draws taken would."""
        bit_generator = self._bit_generator
        taken = self._fetched - length_hint(self._unused) - self._spare
        if taken != self._fetched:
            bit_generator.state = self._saved
            bit_generator.advance(taken)
        state = bit_generator.state
        state["has_uint32"] = self.has_uint32
        state["uinteger"] = self.uinteger
        bit_generator.state = state


class _RangeWords(_Words):
    """The words behind one run of draws from the int64 ``(m, 1)``
    integer ranges of ``span`` values from ``first``.

    A range of more than one value (a *live* one) takes a word per value,
    a one-value range none.  The constants of NumPy's Lemire rule for
    each range are computed once per run, here.
    """

    def __init__(self, bit_generator, first: np.ndarray, span: np.ndarray):
        super().__init__(bit_generator)
        self.first = first.ravel()
        self.span = span.ravel()
        self.live = self.span > 1
        span = self.span[self.live][:, np.newaxis]
        self._span = span.astype(np.uint32)
        self._rejected_below = (((1 << 32) - span) % span).astype(np.uint32)

    def draw(self, batches: int, size: int) -> Optional[np.ndarray]:
        """The next ``integers(first, first + span, size=(batches, m,
        size))`` draw in word space: the word behind each value, ``(batches, l,
        size)`` uint32 over the ``l`` live ranges, in NumPy's C order.

        Each value is ``first + (u * span >> 32)`` (:meth:`values`) unless
        NumPy's rule rejects the word, ``u * span mod 2**32 < (2**32 -
        span) % span``, and takes the next one.  The words then no longer
        line up with the values: ``None``, with the generator rewound to
        where the reader started.
        """
        live = len(self._span)
        u = self.halves(live * batches * size).reshape(batches, live, size)
        # uint32 products wrap around: the low 32 bits of ``u * span``
        if (u * self._span < self._rejected_below).any():
            self.rewind()
            return None
        return u

    def fill(self, u: np.ndarray, out: np.ndarray) -> None:
        """Fill the float ``(m, batches, size)`` block ``out`` with the
        values the words ``u`` of :meth:`draw` stand for."""
        values = out.transpose(1, 0, 2)
        if self.live.all():
            values[...] = u
        else:
            # a one-value range gets word 0, which the rule maps to ``first``
            values[...] = 0
            values[:, self.live] = u
        # float64 in place: ``u * span < 2**53``, so every step but the last
        # is exact, and the last rounds the exact sum once, as NumPy's int64
        # result does when it is stored as a float
        values *= self.span[:, np.newaxis] * 2.0**-32
        np.floor(values, out=values)
        values += self.first[:, np.newaxis].astype(float)

    def values(self, u: np.ndarray) -> np.ndarray:
        """The float64 point the words ``u`` of its live ranges stand for."""
        point = np.empty((len(self.first), 1, 1))
        self.fill(u.reshape(1, len(u), 1), point)
        return point.ravel()


class _WordDraws(_Words):
    """:func:`scalar_draws` on a ``PCG64``: NumPy's scalar values computed
    in plain Python from words read ahead."""

    def __init__(self, rng: np.random.Generator):
        super().__init__(rng.bit_generator)
        self._rng = rng

    def random(self) -> float:
        """``rng.random()``: a word's top 53 bits times ``2**-53``."""
        return (self.word() >> 11) * _DOUBLE_UNIT

    def integer(self, first: int, span: int) -> int:
        """``int(rng.integers(first, first + span))``.

        Lemire's rule on 32-bit draws: the value is ``first + (u * span >>
        32)`` for the next draw ``u``, unless ``u * span mod 2**32`` falls
        below ``(2**32 - span) % span``, which rejects ``u`` and takes
        another.  A span of one takes no draw; a span outside ``(1,
        2**32)`` is NumPy's own call.
        """
        if not 1 < span < _HALF_SPAN:
            return first if span == 1 else self._numpy_integer(first, span)
        product = self.half() * span
        if product & 0xFFFFFFFF < span:
            threshold = (_HALF_SPAN - span) % span
            while product & 0xFFFFFFFF < threshold:
                product = self.half() * span
        return first + (product >> 32)

    def _numpy_integer(self, first: int, span: int) -> int:
        self.hand_back()
        try:
            return int(self._rng.integers(first, first + span))
        finally:
            # read ahead again from wherever NumPy's call left the generator
            self.start()


class _GeneratorDraws:
    """:func:`scalar_draws` on any other bit generator: NumPy's calls."""

    def __init__(self, rng: np.random.Generator):
        self.random = rng.random
        self._integers = rng.integers

    def integer(self, first: int, span: int) -> int:
        """``int(rng.integers(first, first + span))``."""
        return int(self._integers(first, first + span))


@contextmanager
def scalar_draws(
    rng: np.random.Generator,
) -> Iterator[Union[_WordDraws, _GeneratorDraws]]:
    """Scalar draws from ``rng`` at the cost of plain Python arithmetic.

    ``draws.random()`` is ``rng.random()`` and ``draws.integer(first,
    span)`` is ``int(rng.integers(first, first + span))``: in any
    interleaving, the same values, and on leaving the block (by an
    exception too) the same generator state.  On a ``PCG64`` the values
    are computed from words read ahead :data:`_CHUNK_WORDS` at a time, and
    the generator is handed back just past the words the draws took; on
    any other bit generator they are NumPy's calls.  ``rng`` must not be
    drawn from directly inside the block.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        yield _GeneratorDraws(rng)
        return
    draws = _WordDraws(rng)
    try:
        yield draws
    finally:
        draws.hand_back()
