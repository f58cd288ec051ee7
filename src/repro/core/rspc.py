"""Random Simple Predicates Cover (Algorithm 1).

RSPC is the Monte Carlo core of the paper: it repeatedly guesses a uniform
random point inside the tested subscription ``s`` and checks whether the
point is a *point witness*, i.e. lies outside every subscription of the
candidate set ``S``.  Finding a witness proves non-coverage (a definite
NO); exhausting the ``d`` allowed guesses yields a probabilistic YES whose
error probability is bounded by ``(1 - rho_w)^d`` (Proposition 1 / Eq. 1).

The guess kernel (:func:`_guess_witness`).  One seeded generator serves
every check of a run, so *what* is drawn, and in which order, is part of
the recorded behaviour: guesses come in batches of 256, each batch drawn
column by column (:meth:`Subscription.draw_batches`, the model's one way
to draw inside a box), and a check stops consuming the stream at the batch
that holds its witness.  The batch size is therefore fixed — changing it
changes every verdict downstream.  How many batches are *in flight* is
not: most guesses are spent confirming covers at the full budget, so
after a batch without a witness the kernel draws and tests a
geometrically growing group of batches (up to ``_GROUP_CAP``) in one
fused draw and one membership pass.  Every later check sees the stream
position it always saw; the cap bounds what a check can draw ahead and
the size of the group buffers.

Word space (:func:`_guess_in_words`).  A run of more than four batches
drawn from a ``PCG64`` (``checker-families``) computes no guess but the
witness.  NumPy draws a value from ``span`` integers as
``first + (u * span >> 32)`` of a 32-bit word ``u`` (Lemire's rule),
which grows with ``u``, so "guess >= bound" is "word >= threshold".  Once
per run the candidates' signed bounds become exact uint32 thresholds
(:func:`_word_thresholds`); each group's words come straight from the
generator through the run's one reader
(:func:`~repro.utils.rng.integer_words`) and are tested as words.  A
witness before the group's last batch gives the later batches' words
back, and the generator is handed back once, at the end of the run.
Value space (:func:`_guess_in_values`) takes the rest: shorter runs,
whose groups are too small to pay for the thresholds; a word Lemire's
rule rejects (NumPy then takes another, so words and values part; the
run starts over from its saved state); other bit generators, and ranges
of more than ``2**21`` values.  Its draw is
:func:`~repro.utils.rng.integers_into`, the values and end state of one
broadcast-bounds ``Generator.integers`` call; a witness before the end of
a group restores the state saved before the group and re-draws only the
batches a one-batch-at-a-time loop would have drawn.

Only the bounds a guess can fail (:func:`_candidate_blocks`).  Definition 2
calls a conflict-table entry ``T_i^j`` *undefined* when ``s ∧ ¬s_i^j`` is
unsatisfiable: every point of ``s`` already satisfies that bound, so "is
the guess inside ``s_i``?" needs only the row's ``t_i`` defined entries —
about 1.6 of 30 per row on the Section-6 families.  One comparison against
``s``'s snapped signed box per run marks the bounds some guess can fail;
each block of candidates keeps only the axes one of its members needs,
and a block that needs none contains all of ``s``.  A bound is skipped
only when every guess the sampling plan can draw satisfies it.  The first
uncovered index is unchanged, and with it the draws, the rollback and
every counter (README, "The RSPC guess kernel", has the measurements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import as_candidate_set, signed_box
from repro.core.error_model import (
    compute_required_iterations,
    effective_error,
    required_iterations,
)
from repro.model.subscriptions import Subscription
from repro.utils.rng import RandomSource, ensure_rng, integer_words
from repro.utils.validation import require_delta, require_iteration_cap

__all__ = ["RSPCOutcome", "RSPCResult", "run_rspc"]


class RSPCOutcome(str, Enum):
    """Verdict of one RSPC execution."""

    #: a point witness was found — ``s`` is definitely not covered
    WITNESS_FOUND = "witness_found"
    #: all guesses failed — ``s`` is covered with probability ``>= 1 - error``
    EXHAUSTED = "exhausted"
    #: there was nothing to guess against (empty candidate set)
    NO_CANDIDATES = "no_candidates"


@dataclass
class RSPCResult:
    """Outcome and accounting of an RSPC execution.

    Attributes
    ----------
    outcome:
        Which of the three verdicts was reached.
    covered:
        Interpretation of the outcome as a cover answer.
    iterations_performed:
        Number of random guesses actually executed (``<= iterations_allowed``).
    iterations_allowed:
        The guess budget used for this execution (the capped ``d``).
    theoretical_iterations:
        The uncapped ``d`` implied by the error bound, possibly ``inf``.
    witness_point:
        The discovered point witness, when ``outcome`` is ``WITNESS_FOUND``.
    rho_w:
        The point-witness probability bound the budget was derived from.
    error_bound:
        Residual error probability of a YES verdict after the performed
        guesses, ``(1 - rho_w)^iterations_performed``.
    truncated:
        True when the guesses were exhausted at a budget capped below the
        theoretical ``d``, so the achieved error bound is weaker than
        requested.  Never set on a witness, which is definite.
    """

    outcome: RSPCOutcome
    covered: bool
    iterations_performed: int
    iterations_allowed: int
    theoretical_iterations: float
    witness_point: Optional[np.ndarray]
    rho_w: float
    error_bound: float
    truncated: bool


#: Guesses per batch.  Not a tuning knob: the checker's one generator is
#: consumed batch by batch — every attribute column of a batch is drawn
#: before the next batch starts — so this number *is* the seeded guess
#: stream the golden traces pin.
_BATCH_SIZE = 256

#: Most full batches drawn and tested together.  Bounds the draw-ahead a
#: witness can force the kernel to repeat (fewer than this many batches)
#: and the group buffers (``_GROUP_CAP * _BATCH_SIZE`` points).
_GROUP_CAP = 16

#: candidates per membership-test block (see :func:`_first_uncovered`)
_CANDIDATE_BLOCK = 8

#: Most guesses a run keeps in value space.  A word run pays a fixed cost
#: (the reader, a generator state round trip, the word thresholds) that
#: only groups of several batches pay back, and a budget of at most four
#: batches draws groups of one, two and one.  Measured in place: with
#: every run in word space, ``churn-overlay`` and ``cycle-engine`` —
#: budgets of at most 1 000 guesses, 1.2 to 2 groups a run — lost 3-10 %
#: of ``events_per_s`` on a 2-core x86-64 VM.
_WORD_MIN_GUESSES = 4 * _BATCH_SIZE


def _candidate_blocks(
    subscription: Subscription, signed: np.ndarray, words=None
) -> list:
    """Split the signed ``(2m, r)`` bounds into membership-test blocks,
    keeping only the bounds a guess can fail.

    "Is the point inside ANY candidate?" is order-independent, so the
    candidates are tested in blocks sorted by (heuristic) volume: the
    widest candidates absorb most guesses in the first block or two, and
    the remaining blocks only ever see the few points still uncovered.
    Candidates that fit in one block are not sorted.

    A bound every guess satisfies is an *undefined* conflict-table entry
    (Definition 2) and is skipped: one at or below ``s``'s snapped bound
    (guesses are ticks inside the snapped box).  Each block is ``(axes,
    bounds)``: the signed axes at least one member needs, and the
    members' ``(len(axes), block, 1)`` bounds on them.  A block with no
    axes contains every point of ``s``.

    Given the run's word reader ``words`` the blocks are built for
    guesses in word space (:func:`_word_thresholds`): the bounds are
    uint32 thresholds on the signed axes of the columns that draw a word,
    an entry is needed where its threshold is above 0, and the candidates
    that hold no guess are left out.
    """
    m, k = signed.shape[0] // 2, signed.shape[1]
    if k > _CANDIDATE_BLOCK:
        with np.errstate(all="ignore"):
            volume = np.multiply.reduce(1.0 - signed[m:] - signed[:m], axis=0)
        signed = signed[:, (-volume).argsort()]
    if words is not None:
        signed = _word_thresholds(signed, words)
        needed = signed > 0
    else:
        # a negation, so that a NaN bound stays needed (and fails every guess)
        needed = ~(signed <= signed_box(subscription)[0][:, np.newaxis])
    starts = np.arange(0, signed.shape[1], _CANDIDATE_BLOCK)
    if not starts.size:
        return []
    # one reduction for every block: the axes at least one member needs
    block_needs = np.logical_or.reduceat(needed, starts, axis=1).T
    blocks = []
    for start, needs in zip(starts.tolist(), block_needs):
        axes = needs.nonzero()[0]
        bounds = signed[axes, start : start + _CANDIDATE_BLOCK, np.newaxis]
        blocks.append((axes, bounds))
    return blocks


def _word_thresholds(signed: np.ndarray, words) -> np.ndarray:
    """The signed ``(2m, r)`` bounds as thresholds on the words behind
    the guesses of the word reader ``words``
    (:func:`~repro.utils.rng.integer_words`): ``(2l, r')`` uint32 over
    its ``l`` live columns, without the ``r - r'`` candidates that hold
    no guess.

    A column of ``span`` values from ``first`` to ``last`` maps a word
    ``u`` to ``first + (u * span >> 32)``, which grows with ``u``.  So a
    guess is ``>= low`` iff ``u >= ceil((ceil(low) - first) * 2**32 /
    span)``, and ``<= high`` iff ``~u >= floor((last - floor(high)) *
    2**32 / span)``, ``~u`` being ``2**32 - 1 - u`` (the mirrored axis).
    Both are exact in float64: the integer numerator is divided once,
    correctly rounded, and scaled by a power of two, and a quotient in
    ``(0, 2**32)`` that is not an integer lies at least ``1 / span >=
    2**-21`` from one, more than half its ulp.  A threshold at or below 0
    is an undefined entry (every word passes it); a numerator of ``span``
    or more — or a NaN bound — leaves the candidate no guess.
    """
    m = signed.shape[0] // 2
    first, span = words.first[:, np.newaxis], words.span[:, np.newaxis]
    # ``ceil(low) - first`` on top of ``last - floor(high)``, in spans
    share = np.ceil(signed)
    share[:m] -= first
    share[:m] /= span
    share[m:] += first + (span - 1)
    share[m:] /= span
    holds = (share < 1.0).all(axis=0)
    if not words.live.all():
        share = share[np.tile(words.live, 2)]
    if not holds.all():
        share = share[:, holds]
    lows = len(share) // 2
    share *= 2.0**32
    np.ceil(share[:lows], out=share[:lows])
    np.floor(share[lows:], out=share[lows:])
    return np.maximum(share, 0.0, out=share).astype(np.uint32)


def _first_uncovered(points: np.ndarray, blocks: list) -> int:
    """Index of the first guess in ``points`` outside every candidate, or -1.

    ``points`` is attribute-major, ``(m, n)`` or ``(m, batches, size)``
    with the guesses in C order: float values, or uint32 words
    (:func:`_word_thresholds`).  Mirrored onto the signed axes (``p`` on
    top of ``-p``, or ``u`` on top of ``~u``) a point is inside a
    candidate iff it is ``>=`` the candidate's signed column on all
    ``2m`` axes — one comparison per block, on the block's axes only.
    Each block only sees the points no earlier block contained, and the
    scan stops as soon as none is left.
    """
    m, count = points.shape[0], math.prod(points.shape[1:])
    mirrored = np.empty((2 * m, *points.shape[1:]), dtype=points.dtype)
    mirrored[:m] = points
    flip = np.negative if points.dtype.kind == "f" else np.invert
    flip(mirrored[:m], out=mirrored[m:])
    mirrored = mirrored.reshape(2 * m, count)
    remaining = np.arange(count)
    for axes, bounds in blocks:
        if not axes.size:
            return -1
        outside = ~(mirrored[axes, np.newaxis, :] >= bounds).all(axis=0).any(axis=0)
        remaining = remaining[outside]
        if remaining.size == 0:
            return -1
        mirrored = mirrored[:, outside]
    return int(remaining[0])


def _guess_witness(
    subscription: Subscription,
    signed: np.ndarray,
    rng: np.random.Generator,
    allowed: int,
) -> tuple:
    """Algorithm 1's loop: ``(witness_or_None, guesses_used)``.

    Guesses come in batches of ``_BATCH_SIZE`` (the last one may be
    shorter).  How many batches are *in flight* is execution policy only:
    after a batch in which every guess was covered — the sign of a check
    that will spend its whole budget confirming a cover — the kernel
    draws and tests 2, 4, ... up to ``_GROUP_CAP`` full batches at once.

    Rollback invariant: on return the generator is in exactly the state
    that drawing one batch at a time and stopping at the batch holding the
    witness leaves it in, so no later check can tell how far this one
    drew ahead.

    A run of more than ``_WORD_MIN_GUESSES`` guesses whose draws
    :func:`~repro.utils.rng.integer_words` can read as words guesses in
    word space (:func:`_guess_in_words`).  Every other
    run, and one whose words meet a rejection, guesses in value space
    (:func:`_guess_in_values`) from where the run started.
    """
    if allowed > _WORD_MIN_GUESSES:
        words = integer_words(rng, *subscription.sampling_plan())
        if words is not None:
            found = _guess_in_words(subscription, signed, words, allowed)
            if found is not None:
                return found
    return _guess_in_values(subscription, signed, rng, allowed)


def _groups(allowed: int) -> Iterator[Tuple[int, int, int]]:
    """The guess groups of a run of ``allowed`` guesses, as ``(performed,
    batches, size)``; each one follows a group without a witness."""
    performed = 0
    group = 1
    while performed < allowed:
        left = allowed - performed
        size = min(_BATCH_SIZE, left)
        # only full batches are grouped; a shorter last one goes alone
        batches = max(1, min(group, left // _BATCH_SIZE))
        yield performed, batches, size
        performed += batches * size
        group = min(2 * group, _GROUP_CAP)


def _guess_in_values(
    subscription: Subscription,
    signed: np.ndarray,
    rng: np.random.Generator,
    allowed: int,
) -> tuple:
    """:func:`_guess_witness` on drawn values.  When the witness lands in
    batch ``j`` of a group, the state saved before the group is restored
    and ``j + 1`` batches are drawn again."""
    blocks = _candidate_blocks(subscription, signed)
    bit_generator = rng.bit_generator
    for performed, batches, size in _groups(allowed):
        state = bit_generator.state
        points = subscription.draw_batches(rng, batches, size)
        first = _first_uncovered(points, blocks)
        if first >= 0:
            drawn = first // size + 1
            if drawn < batches:
                bit_generator.state = state
                subscription.draw_batches(rng, drawn, size)
            return points[:, first].copy(), performed + first + 1
    return None, allowed


def _guess_in_words(
    subscription: Subscription, signed: np.ndarray, words, allowed: int
) -> Optional[tuple]:
    """:func:`_guess_witness` on the words behind the draws, read from the
    run's one reader ``words``; ``None``, with the generator where the run
    started, when a word is rejected.

    Each group's words come straight from the generator
    (:meth:`~repro.utils.rng._RangeWords.draw`) and are tested against
    per-candidate word thresholds (:func:`_word_thresholds`), so no guess
    is computed but the witness.  When it lands in batch ``j`` of a
    group, the later batches' words are given back; the generator is
    handed back once, just past the words of the batches drawn.
    """
    blocks = _candidate_blocks(subscription, signed, words)
    for performed, batches, size in _groups(allowed):
        u = words.draw(batches, size)
        if u is None:
            return None
        found = _first_uncovered(u.transpose(1, 0, 2), blocks)
        if found >= 0:
            batch, column = divmod(found, size)
            words.unread((batches - batch - 1) * u[0].size)
            words.hand_back()
            return words.values(u[batch, :, column]), performed + found + 1
    words.hand_back()
    return None, allowed


def run_rspc(
    subscription: Subscription,
    candidates: Sequence[Subscription],
    rho_w: float,
    delta: float = 1e-6,
    rng: RandomSource = None,
    max_iterations: Optional[int] = None,
    bounds: Optional[np.ndarray] = None,
) -> RSPCResult:
    """Execute Algorithm 1 against ``candidates``.

    Parameters
    ----------
    subscription:
        The subscription ``s`` whose coverage is being tested.
    candidates:
        The candidate set ``S`` (typically already reduced by MCS).
    rho_w:
        Lower bound on the point-witness probability (from Algorithm 2);
        determines the number of trials for the requested ``delta``.
    delta:
        Acceptable probability of a false "covered" verdict (Eq. 1).
    rng:
        Seed or generator for the random guesses.
    max_iterations:
        Hard cap on the number of guesses.  The theoretical ``d`` can be
        astronomically large (the paper reports values up to ``10^60``);
        capping keeps the checker practical, at the cost of a weaker error
        bound which is reported through ``truncated``/``error_bound``.
    bounds:
        Optional candidate bounds already in the conflict table's signed,
        attribute-major layout (:meth:`ConflictTable.signed_bounds`):
        shape ``(2m, len(candidates))``, lower bounds on top of negated
        upper bounds — skips re-stacking the candidate objects.  Must
        describe exactly ``candidates``.  Snapped or raw bounds decide
        alike: a guess is tested against each bound as a value, or, on
        the word path, against the word threshold of its ``ceil``
        (:func:`_word_thresholds`); a NaN column (a tombstone) holds no
        guess either way.

    Returns
    -------
    RSPCResult
        The verdict plus all accounting needed by the experiments.

    Raises
    ------
    ValueError
        When ``delta`` is not in ``(0, 1)``, ``max_iterations`` is neither
        ``None`` nor an ``int >= 1``, or ``bounds`` does not have shape
        ``(2m, len(candidates))``.  Raised before any guess is drawn.
    """
    require_delta(delta)
    if max_iterations is not None:
        require_iteration_cap(max_iterations)
    if bounds is not None:
        expected = (2 * subscription.m, len(candidates))
        if np.shape(bounds) != expected:
            raise ValueError(
                f"bounds must have shape {expected} to describe the "
                f"candidates; got {np.shape(bounds)}"
            )
    generator = ensure_rng(rng)

    if not candidates:
        return RSPCResult(
            outcome=RSPCOutcome.NO_CANDIDATES,
            covered=False,
            iterations_performed=0,
            iterations_allowed=0,
            theoretical_iterations=0.0,
            witness_point=None,
            rho_w=1.0,
            error_bound=0.0,
            truncated=False,
        )

    theoretical = required_iterations(delta, rho_w)
    allowed = max(compute_required_iterations(delta, rho_w, max_iterations), 1)

    if bounds is None:
        bounds = as_candidate_set(candidates).signed

    witness, performed = _guess_witness(subscription, bounds, generator, allowed)

    if witness is not None:
        return RSPCResult(
            outcome=RSPCOutcome.WITNESS_FOUND,
            covered=False,
            iterations_performed=performed,
            iterations_allowed=allowed,
            theoretical_iterations=theoretical,
            witness_point=witness,
            rho_w=rho_w,
            error_bound=0.0,
            truncated=False,
        )

    return RSPCResult(
        outcome=RSPCOutcome.EXHAUSTED,
        covered=True,
        iterations_performed=performed,
        iterations_allowed=allowed,
        theoretical_iterations=theoretical,
        witness_point=None,
        rho_w=rho_w,
        error_bound=effective_error(rho_w, performed),
        truncated=allowed < theoretical,
    )
