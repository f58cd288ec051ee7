"""Small shared utilities: random number handling and validation."""

from repro.utils.rng import RandomSource, ensure_rng, spawn_rngs
from repro.utils.validation import require_positive, require_probability

__all__ = [
    "RandomSource",
    "ensure_rng",
    "require_positive",
    "require_probability",
    "spawn_rngs",
]
