"""Exact (deterministic) group-cover oracle.

The general subsumption problem is co-NP complete, but for the moderate
instance sizes used in tests and for ground-truth accounting of false
decisions (Figure 12) an exact answer is affordable.  The oracle subtracts
every candidate hyper-rectangle from ``s`` by box decomposition: the
region of ``s`` not covered by ``S`` is maintained as a list of disjoint
boxes; ``s`` is covered exactly when that list becomes empty.

The decomposition produces at most ``2m`` new boxes per subtraction, so the
worst case is exponential in ``k`` — this module is an *oracle for
validation*, not a competitor to RSPC (which is the whole point of the
paper).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.model.subscriptions import Subscription

__all__ = ["exact_group_cover", "uncovered_region", "exact_witness_point"]

_Box = Tuple[np.ndarray, np.ndarray]


def _box_is_empty(lows: np.ndarray, highs: np.ndarray) -> bool:
    """Whether a box of tick-valued bounds contains no tick."""
    return bool((lows > highs).any())


def _ticks_inside(subscription: Subscription) -> _Box:
    """``subscription``'s bounds rounded inwards to a tick: only ticks
    exist, and the ``± 1`` arithmetic of :func:`_subtract` is exact on
    tick-valued bounds only (a lower bound of ``4.7`` leaves the tick ``4``
    uncovered, not just ``x <= 3.7``)."""
    return np.ceil(subscription.lows), np.floor(subscription.highs)


def _subtract(box: _Box, cand_lows: np.ndarray, cand_highs: np.ndarray) -> List[_Box]:
    """Subtract a candidate box from ``box``, returning disjoint remainders."""
    lows, highs = box
    # Disjoint on some attribute -> nothing to subtract.
    if np.any(cand_lows > highs) or np.any(cand_highs < lows):
        return [box]

    remainders: List[_Box] = []
    current_lows = lows.copy()
    current_highs = highs.copy()
    for attribute in range(len(lows)):
        # Part of the current box strictly below the candidate.
        if cand_lows[attribute] > current_lows[attribute]:
            below_lows = current_lows.copy()
            below_highs = current_highs.copy()
            below_highs[attribute] = cand_lows[attribute] - 1.0
            if not _box_is_empty(below_lows, below_highs):
                remainders.append((below_lows, below_highs))
        # Part of the current box strictly above the candidate.
        if cand_highs[attribute] < current_highs[attribute]:
            above_lows = current_lows.copy()
            above_highs = current_highs.copy()
            above_lows[attribute] = cand_highs[attribute] + 1.0
            if not _box_is_empty(above_lows, above_highs):
                remainders.append((above_lows, above_highs))
        # Narrow the current box to the candidate's extent on this attribute
        # and continue carving the next attribute.
        current_lows[attribute] = max(current_lows[attribute], cand_lows[attribute])
        current_highs[attribute] = min(current_highs[attribute], cand_highs[attribute])
    return remainders


def uncovered_region(
    subscription: Subscription,
    candidates: Sequence[Subscription],
    max_boxes: int = 200_000,
) -> List[Subscription]:
    """Return a disjoint box decomposition of ``s \\ (s_1 ∪ … ∪ s_k)``.

    Raises :class:`RuntimeError` when the decomposition exceeds
    ``max_boxes`` boxes (a safety valve for adversarial instances).
    """
    schema = subscription.schema
    boxes: List[_Box] = [_ticks_inside(subscription)]
    if _box_is_empty(*boxes[0]):
        return []  # no tick inside ``s``: nothing to leave uncovered
    for candidate in candidates:
        if not boxes:
            break
        cand_lows, cand_highs = _ticks_inside(candidate)
        next_boxes: List[_Box] = []
        for box in boxes:
            next_boxes.extend(_subtract(box, cand_lows, cand_highs))
            if len(next_boxes) > max_boxes:
                raise RuntimeError(
                    "uncovered_region exceeded the box budget "
                    f"({max_boxes}); the instance is too large for the exact oracle"
                )
        boxes = next_boxes
    return [
        Subscription(
            schema, lows, highs, subscription_id=f"{subscription.id}#uncovered{index}"
        )
        for index, (lows, highs) in enumerate(boxes)
    ]


def exact_group_cover(
    subscription: Subscription,
    candidates: Sequence[Subscription],
    max_boxes: int = 200_000,
) -> bool:
    """Exact answer to ``s ⊑ (s_1 ∨ … ∨ s_k)`` by box subtraction."""
    return not uncovered_region(subscription, candidates, max_boxes=max_boxes)


def exact_witness_point(
    subscription: Subscription,
    candidates: Sequence[Subscription],
    max_boxes: int = 200_000,
) -> Optional[np.ndarray]:
    """A concrete point witness, or ``None`` when ``s`` is covered."""
    remaining = uncovered_region(subscription, candidates, max_boxes=max_boxes)
    if not remaining:
        return None
    box = remaining[0]
    return box.lows.copy()
