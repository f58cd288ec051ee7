"""Shared fixtures: schemas, RNGs and the paper's worked examples."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conflict_table import conflict_free_entries
from repro.model import Schema, Subscription


@pytest.fixture
def rng():
    """A deterministic random generator for test reproducibility."""
    return np.random.default_rng(20060331)


@pytest.fixture
def schema_2d():
    """The 2-D integer schema used by the paper's worked examples."""
    return Schema.uniform_integer(2, 0, 10_000, prefix="x", name="paper-2d")


@pytest.fixture
def schema_small():
    """A small 3-attribute schema for quick algorithm tests."""
    return Schema.uniform_integer(3, 0, 1_000, prefix="x", name="small")


@pytest.fixture
def schema_medium():
    """A 5-attribute schema matching the extreme non-cover experiments."""
    return Schema.uniform_integer(5, 0, 10_000, prefix="x", name="medium")


# ----------------------------------------------------------------------
# Worked example of Table 3 / Figure 2: s ⊑ (s1 ∨ s2)
# ----------------------------------------------------------------------
@pytest.fixture
def table3_subscription(schema_2d):
    """The tested subscription ``s`` of Table 3."""
    return Subscription.from_constraints(
        schema_2d, {"x1": (830, 870), "x2": (1003, 1006)}, subscription_id="s"
    )


@pytest.fixture
def table3_candidates(schema_2d):
    """The set ``{s1, s2}`` of Table 3 (jointly covering ``s``)."""
    s1 = Subscription.from_constraints(
        schema_2d, {"x1": (820, 850), "x2": (1001, 1007)}, subscription_id="s1"
    )
    s2 = Subscription.from_constraints(
        schema_2d, {"x1": (840, 880), "x2": (1002, 1009)}, subscription_id="s2"
    )
    return [s1, s2]


# ----------------------------------------------------------------------
# Worked example of Table 6 / Figure 3: non-cover with a witness
# ----------------------------------------------------------------------
@pytest.fixture
def table6_subscription(schema_2d):
    """The tested subscription ``s`` of Table 6."""
    return Subscription.from_constraints(
        schema_2d, {"x1": (830, 890), "x2": (1003, 1006)}, subscription_id="s"
    )


@pytest.fixture
def table6_candidates(schema_2d):
    """The set ``{s1, s2}`` of Table 6 (leaving ``x1 > 870`` uncovered)."""
    s1 = Subscription.from_constraints(
        schema_2d, {"x1": (820, 850), "x2": (1002, 1009)}, subscription_id="s1"
    )
    s2 = Subscription.from_constraints(
        schema_2d, {"x1": (840, 870), "x2": (1001, 1007)}, subscription_id="s2"
    )
    return [s1, s2]


# ----------------------------------------------------------------------
# Worked example of Table 7 / Table 8: the conflict-free subscription s3
# ----------------------------------------------------------------------
@pytest.fixture
def table7_candidates(schema_2d, table3_candidates):
    """``{s1, s2, s3}`` of Table 7 (``s3`` has only conflict-free entries)."""
    s3 = Subscription.from_constraints(
        schema_2d, {"x1": (810, 890), "x2": (1004, 1005)}, subscription_id="s3"
    )
    return table3_candidates + [s3]


# ----------------------------------------------------------------------
# Conflict-table helpers
# ----------------------------------------------------------------------
def _conflict_free_counts(table, rows=None):
    """Per-row count of conflict-free entries (the paper's ``fc_i``).

    Read off the kernel MCS drops rows with
    (:func:`repro.core.conflict_table.conflict_free_entries`); ``rows``
    restricts the count to those rows, in the given order.
    """
    opposing, threshold = table._ensure_pass_cache()[:2]
    if rows is not None:
        active = np.asarray(rows, dtype=int)
        opposing, threshold = opposing[:, active], threshold[:, active]
    if opposing.shape[1] == 0:
        return np.zeros(0, dtype=int)
    return conflict_free_entries(opposing, threshold).sum(axis=0)


@pytest.fixture(scope="session")
def conflict_free_counts():
    """``conflict_free_counts(table, rows=None)``: the paper's ``fc_i``."""
    return _conflict_free_counts


@pytest.fixture(scope="session")
def defined_entries():
    """``defined_entries(table)``: every defined entry, row by row."""
    return lambda table: [
        entry for row in range(table.k) for entry in table.defined_entries(row)
    ]
