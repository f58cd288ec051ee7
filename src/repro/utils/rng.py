"""Random-number helpers.

Every stochastic component of the library (the RSPC point guesser, the
workload generators, the broker simulator) accepts either a seed or a
:class:`numpy.random.Generator` so experiments are reproducible end to end.
"""

from __future__ import annotations

import sys
from typing import List, Optional, Union

import numpy as np

__all__ = ["RandomSource", "ensure_rng", "integers_into", "spawn_rngs"]

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
    word.  On a ``PCG64`` the words are the low then the high half of
    each ``random_raw`` word, after the half word ``has_uint32`` may hold
    buffered, so a large draw is one ``random_raw`` call and array
    arithmetic on the same words.  The call is NumPy's own when the
    generator is not a ``PCG64``, the host is big-endian, a range exceeds
    ``2**21`` values, a bound exceeds ``2**53`` in magnitude, the draw
    takes fewer than ``_KERNEL_MIN_WORDS`` words, or a word is rejected
    (the state is restored first).
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
    m, batches, size = out.shape
    span = beyond - first
    spans = span.ravel().tolist()
    live = [value > 1 for value in spans]
    words = sum(live) * batches * size
    if (
        words < _KERNEL_MIN_WORDS
        or min(spans) < 1
        or max(spans) > _EXACT_SPAN
        # ``float(first)`` must be exact for the float sum to round once
        or max(map(abs, first.ravel().tolist())) > 1 << 53
    ):
        return False
    saved = bit_generator.state
    buffered = saved["has_uint32"]
    fresh = words - buffered
    raw = bit_generator.random_raw((fresh + 1) // 2)
    stream = raw.view(np.uint32)
    if buffered:
        stream = np.concatenate((np.array([saved["uinteger"]], np.uint32), stream))
    # the live columns take the words in the C order of (batches, m, size);
    # a one-value column gets word 0, which the rule maps to ``first``
    u = stream[:words].reshape(batches, sum(live), size)
    if not all(live):
        spread = np.zeros((batches, m, size), np.uint32)
        spread[:, live] = u
        u = spread
    threshold = ((1 << 32) - span) % span
    if (u * span.astype(np.uint32) < threshold.astype(np.uint32)).any():
        bit_generator.state = saved
        return False
    # float64 in place: ``u * span < 2**53``, so every step but the last
    # is exact, and the last rounds the exact sum once, as NumPy's int64
    # result does when it is stored as a float
    values = out.transpose(1, 0, 2)
    values[...] = u
    values *= span * 2.0**-32
    np.floor(values, out=values)
    values += first.astype(float)
    state = bit_generator.state
    state["has_uint32"] = fresh % 2
    state["uinteger"] = int(raw[-1]) >> 32
    bit_generator.state = state
    return True
