"""Closed numeric intervals.

An :class:`Interval` is the building block of every subscription: the paper
models each simple predicate pair ``x_j >= low`` and ``x_j <= high`` as a
closed range on attribute ``x_j``.  Unbounded sides are represented with
``-inf`` / ``+inf`` which the paper interprets as "the attribute is not
significant for this subscription".

The interval is domain-agnostic: whether its endpoints are integer codes,
category codes or timestamps is decided by the attribute domain that
produced it (see :mod:`repro.model.attributes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Interval"]


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[low, high]`` over the reals.

    An interval with ``low > high`` is *empty*.  The canonical empty interval
    is :meth:`Interval.empty`.

    Parameters
    ----------
    low:
        Lower endpoint (inclusive).  ``-inf`` means unbounded below.
    high:
        Upper endpoint (inclusive).  ``+inf`` means unbounded above.
    """

    low: float
    high: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "Interval":
        """Return the canonical empty interval."""
        return Interval(math.inf, -math.inf)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the interval contains no point."""
        return self.low > self.high

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def intersection(self, other: "Interval") -> "Interval":
        """Return the intersection of the two intervals (possibly empty)."""
        if self.is_empty or other.is_empty:
            return Interval.empty()
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return Interval.empty()
        return Interval(low, high)

    def clamp(self, low: float, high: float) -> "Interval":
        """Return the interval clipped to ``[low, high]``."""
        return self.intersection(Interval(low, high))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        if self.is_empty:
            return "Interval.empty()"
        return f"Interval({self.low!r}, {self.high!r})"
