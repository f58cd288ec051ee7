"""Unit tests for :mod:`repro.utils`."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import require_positive, require_probability


class TestRng:
    def test_ensure_rng_from_seed(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_ensure_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_ensure_rng_from_seed_sequence(self):
        sequence = np.random.SeedSequence(7)
        assert isinstance(ensure_rng(sequence), np.random.Generator)

    def test_ensure_rng_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_spawn_rngs_independent_but_reproducible(self):
        first = [g.integers(0, 1000) for g in spawn_rngs(5, 3)]
        second = [g.integers(0, 1000) for g in spawn_rngs(5, 3)]
        assert first == second
        assert len(set(first)) > 1

    def test_spawn_rngs_from_generator(self):
        children = spawn_rngs(np.random.default_rng(0), 4)
        assert len(children) == 4

    def test_spawn_rngs_invalid_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_zero(self):
        assert spawn_rngs(0, 0) == []


class TestValidation:
    def test_require_positive(self):
        require_positive(1.0, "x")
        with pytest.raises(ValueError):
            require_positive(0.0, "x")

    def test_require_probability(self):
        require_probability(0.0, "p")
        require_probability(1.0, "p")
        with pytest.raises(ValueError):
            require_probability(1.01, "p")
