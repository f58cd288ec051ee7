"""Experiment harness regenerating the paper's evaluation (Section 6).

Each ``fig_*`` module defines the workload, the sweep and the measurement
of one or more figures, returning :class:`~repro.experiments.series.ResultTable`
objects that print the same rows/series the paper reports (run them with
``python -m repro.experiments``).  The ``paper_config()`` presets use the
paper's full parameters while the default configs are sized for quick
laptop runs.
"""

from repro.experiments.config import (
    ChainConfig,
    ComparisonConfig,
    ExtremeNonCoverConfig,
    NonCoverConfig,
    RedundantCoveringConfig,
)
from repro.experiments.fig_chain import run_chain_delivery
from repro.experiments.fig_comparison import run_comparison
from repro.experiments.fig_extreme import run_extreme_non_cover
from repro.experiments.fig_noncover import run_non_cover
from repro.experiments.fig_redundant import run_redundant_covering
from repro.experiments.series import ResultTable, Series

__all__ = [
    "ChainConfig",
    "ComparisonConfig",
    "ExtremeNonCoverConfig",
    "NonCoverConfig",
    "RedundantCoveringConfig",
    "ResultTable",
    "Series",
    "run_chain_delivery",
    "run_comparison",
    "run_extreme_non_cover",
    "run_non_cover",
    "run_redundant_covering",
]
