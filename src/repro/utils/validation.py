"""Argument-validation helpers shared across the library."""

from __future__ import annotations

import numbers
from typing import Any

__all__ = [
    "require_delta",
    "require_iteration_cap",
    "require_positive",
    "require_probability",
]


def require_positive(value: float, name: str) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def require_probability(value: float, name: str) -> None:
    """Require ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def require_delta(value: Any) -> None:
    """Require a usable error target of Algorithm 1: a real ``0 < value < 1``."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {value!r}")


def require_iteration_cap(value: Any) -> None:
    """Require an RSPC guess cap: an ``int >= 1`` (a ``bool`` is not one)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
    ):
        raise ValueError(f"max_iterations must be an int >= 1, got {value!r}")
