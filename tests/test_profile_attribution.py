"""Gap attribution in ``benchmarks/profile_network.py`` stays within 100%.

The profiler explains the engine-vs-network wall-clock gap using the
instrumented stage self-times.  Because the network backend's stages
subsume work the engine backend also performs, the attribution subtracts
the engine's instrumented time; this suite pins the resulting invariants
(fraction within [0, 1], stage shares summing to at most 100%) so a
regression to double counting fails loudly.

Tier-1 never asserts on scheduler timing: the invariants that hold for
*any* clock readings (net-of-engine arithmetic, share sums, self-times
nested inside the run's wall time) are checked on a real seeded run, and
the ones that compare the instrumented extra cost with the wall-clock gap
— true of a quiet machine, not of every run — are checked on hand-set
clock readings (``injected``) whose network stages redo exactly the
engine's work plus a known overhead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.obs.probes import ObsProbe

_PROFILER_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "profile_network.py"
)


def _load_profiler():
    spec = importlib.util.spec_from_file_location(
        "profile_network", _PROFILER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("profile_network", module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def profiler():
    return _load_profiler()


@pytest.fixture(scope="module")
def attribution(profiler):
    """One profiled t1-churn run per backend, attributed."""
    engine_report, engine_probe = profiler.profile_backend(
        "t1-churn", seed=7, backend="engine"
    )
    network_report, network_probe = profiler.profile_backend(
        "t1-churn", seed=7, backend="network"
    )
    return profiler.attribute_gap(
        network_report, network_probe, engine_report, engine_probe
    )


class _ClockedRun:
    """A run whose clock readings are set by hand: ``(report, probe)``."""

    def __init__(self, wall_time, stages):
        self.wall_time = wall_time
        self.events_per_second = 1000.0 / wall_time
        self.probe = ObsProbe()
        self.probe.stage_self.update(stages)
        self.probe.stage_calls.update(dict.fromkeys(stages, 1))


@pytest.fixture(scope="module")
def injected(profiler):
    """Engine: 0.30 s instrumented of 0.40 s.  Network: the same 0.30 s of
    shared work inside its stages, 0.45 s of overlay-only cost and 0.15 s
    of slack — a 0.50 s gap of which 0.45 s is instrumented extra."""
    engine = _ClockedRun(0.40, {"engine.subscribe": 0.20, "engine.match": 0.10})
    network = _ClockedRun(
        0.90,
        {
            "broker.decision": 0.50,
            "broker.route_lookup": 0.15,
            "network.oracle": 0.10,
            "engine.match": 0.05,  # not an overlay stage: must be ignored
        },
    )
    return profiler.attribute_gap(network, network.probe, engine, engine.probe)


class TestGapAttribution:
    def test_fraction_within_unit_interval(self, attribution, injected):
        assert 0.0 <= attribution["gap_attributed_fraction"]
        fraction = injected["gap_attributed_fraction"]
        assert fraction == 0.9, (
            "gap attribution double-counts work shared with the engine "
            f"backend: fraction={fraction} (gross would be 1.5)"
        )

    def test_attributed_seconds_bounded_by_gap(
        self, attribution, injected, profiler
    ):
        assert attribution["gap_attributed_seconds"] >= 0.0
        assert injected["wall_gap_seconds"] == 0.5
        assert injected["gap_attributed_seconds"] == 0.45
        # an engine that out-instruments the overlay clamps at zero
        engine = _ClockedRun(0.40, {"engine.subscribe": 0.35})
        network = _ClockedRun(0.60, {"broker.decision": 0.25})
        clamped = profiler.attribute_gap(
            network, network.probe, engine, engine.probe
        )
        assert clamped["gap_attributed_seconds"] == 0.0
        assert clamped["gap_attributed_fraction"] == 0.0

    def test_attribution_is_net_of_engine_time(self, attribution):
        # exact: the attributed seconds are computed from the published
        # (already rounded) operands, not rounded independently of them
        expected = max(
            attribution["network_instrumented_seconds"]
            - attribution["engine_instrumented_seconds"],
            0.0,
        )
        assert attribution["gap_attributed_seconds"] == round(expected, 6)

    def test_stage_shares_sum_to_at_most_one(self, attribution):
        shares = [
            entry["share_of_network_time"]
            for entry in attribution["top_costs"]
        ]
        assert all(0.0 <= share <= 1.0 for share in shares)
        # rounding of individual shares can add at most 5e-5 each
        assert sum(shares) <= 1.0 + 5e-4

    def test_instrumented_time_within_walls(self, attribution):
        assert (
            attribution["network_instrumented_seconds"]
            <= attribution["network_wall_time"]
        )
        assert (
            attribution["engine_instrumented_seconds"]
            <= attribution["engine_wall_time"]
        )
