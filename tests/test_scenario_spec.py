"""Tests for scenario specs, phases, topologies and metrics snapshots."""

import numpy as np
import pytest

from repro.broker.metrics import MetricsSnapshot, NetworkMetrics
from repro.broker.network import BrokerNetwork
from repro.scenarios.spec import PhaseKind, PhaseSpec, ScenarioSpec, TopologySpec


class TestPhaseSpec:
    def test_round_trip(self):
        phase = PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 10})
        assert PhaseSpec.from_dict(phase.to_dict()) == phase

    def test_accepts_string_kind(self):
        phase = PhaseSpec("burst", "publish_burst", {"count": 5})
        assert phase.kind is PhaseKind.PUBLISH_BURST

    def test_rejects_unknown_parameters(self):
        with pytest.raises(ValueError, match="does not accept"):
            PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"volume": 10})

    def test_steady_state_rejects_degenerate_weights(self):
        with pytest.raises(ValueError, match="positive sum"):
            PhaseSpec(
                "steady",
                PhaseKind.STEADY_STATE,
                {"ops": 10, "publish_weight": 0, "subscribe_weight": 0,
                 "unsubscribe_weight": 0},
            )
        with pytest.raises(ValueError, match="non-negative"):
            PhaseSpec(
                "steady", PhaseKind.STEADY_STATE, {"publish_weight": -1}
            )

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan"), float("inf")])
    def test_storm_rejects_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"'storm'.*\[0, 1\]"):
            PhaseSpec("storm", PhaseKind.UNSUBSCRIBE_STORM, {"fraction": fraction})

    @pytest.mark.parametrize(
        "kind, parameter",
        [
            (PhaseKind.SUBSCRIBE_RAMP, "count"),
            (PhaseKind.PUBLISH_BURST, "count"),
            (PhaseKind.UNSUBSCRIBE_STORM, "count"),
            (PhaseKind.FLASH_CROWD, "subscriptions"),
            (PhaseKind.FLASH_CROWD, "publications"),
            (PhaseKind.STEADY_STATE, "ops"),
        ],
    )
    def test_rejects_negative_sizes(self, kind, parameter):
        with pytest.raises(ValueError, match=f"'sized'.*'{parameter}'.*non-negative"):
            PhaseSpec("sized", kind, {parameter: -1})

    @pytest.mark.parametrize(
        "kind, parameter",
        [
            (PhaseKind.SUBSCRIBE_RAMP, "count"),
            (PhaseKind.PUBLISH_BURST, "count"),
            (PhaseKind.UNSUBSCRIBE_STORM, "count"),
            (PhaseKind.FLASH_CROWD, "subscriptions"),
            (PhaseKind.FLASH_CROWD, "publications"),
            (PhaseKind.STEADY_STATE, "ops"),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_sizes(self, kind, parameter, value):
        # ``int(inf)`` raised OverflowError and ``int(nan)`` a ValueError
        # that did not name the phase
        with pytest.raises(ValueError, match=f"'sized'.*'{parameter}'.*finite"):
            PhaseSpec("sized", kind, {parameter: value})

    @pytest.mark.parametrize(
        "weight", ["publish_weight", "subscribe_weight", "unsubscribe_weight"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_steady_state_rejects_non_finite_weights(self, weight, value):
        # neither ``w < 0`` nor ``sum <= 0`` holds for NaN or an infinity:
        # such a phase compiled to a timeline that ignored its weights
        with pytest.raises(ValueError, match="'steady'.*finite"):
            PhaseSpec("steady", PhaseKind.STEADY_STATE, {"ops": 50, weight: value})

    def test_steady_state_rejects_weights_whose_sum_overflows(self):
        with pytest.raises(ValueError, match="'steady'.*finite"):
            PhaseSpec(
                "steady",
                PhaseKind.STEADY_STATE,
                {"ops": 5, "publish_weight": 1e308, "subscribe_weight": 1e308},
            )

    def test_boundary_sizes_round_trip(self):
        for phase in (
            PhaseSpec("none", PhaseKind.UNSUBSCRIBE_STORM, {"fraction": 0.0}),
            PhaseSpec("all", PhaseKind.UNSUBSCRIBE_STORM, {"fraction": 1}),
            PhaseSpec("empty", PhaseKind.PUBLISH_BURST, {"count": 0}),
        ):
            assert PhaseSpec.from_dict(phase.to_dict()) == phase
            assert phase.to_dict()["params"] == dict(phase.params)

    def test_storm_needs_exactly_one_sizing(self):
        with pytest.raises(ValueError, match="exactly one"):
            PhaseSpec("storm", PhaseKind.UNSUBSCRIBE_STORM, {})
        with pytest.raises(ValueError, match="exactly one"):
            PhaseSpec(
                "storm",
                PhaseKind.UNSUBSCRIBE_STORM,
                {"fraction": 0.5, "count": 3},
            )


class TestTopologySpec:
    def test_line_and_star_edge_counts(self):
        assert len(TopologySpec(kind="line", size=5).build()) == 4
        assert len(TopologySpec(kind="star", size=5).build()) == 4

    def test_grid_broker_count(self):
        topology = TopologySpec(kind="grid", rows=2, columns=3)
        assert topology.broker_count == 6
        edges = topology.build()
        brokers = {b for edge in edges for b in edge}
        assert len(brokers) == 6

    def test_random_tree_is_seed_deterministic(self):
        topology = TopologySpec(kind="random-tree", size=8)
        assert topology.build(rng=5) == topology.build(rng=5)

    def test_round_trip(self):
        for topology in (
            TopologySpec(kind="line", size=4),
            TopologySpec(kind="grid", rows=2, columns=2),
        ):
            assert TopologySpec.from_dict(topology.to_dict()) == topology

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown topology"):
            TopologySpec(kind="torus", size=4)


class TestScenarioSpec:
    def _spec(self, **overrides):
        base = dict(
            name="test",
            phases=[PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 2})],
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_round_trip(self):
        spec = self._spec(
            tier="T1",
            workload="grid",
            topology=TopologySpec(kind="star", size=4),
            policy="pairwise",
            tags=("a", "b"),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "params",
        [
            {"ops": 50, "publish_weight": float("nan")},
            {"ops": 50, "unsubscribe_weight": float("inf")},
            {"ops": float("inf")},
            {"ops": float("nan")},
        ],
    )
    def test_from_dict_rejects_non_finite_phase_parameters(self, params):
        payload = self._spec().to_dict()
        payload["phases"].append(
            {"name": "mix", "kind": "steady_state", "params": params}
        )
        with pytest.raises(ValueError, match="phase 'mix'.*finite"):
            ScenarioSpec.from_dict(payload)

    def test_rejects_empty_timeline(self):
        with pytest.raises(ValueError, match="no phases"):
            self._spec(phases=[])

    def test_rejects_duplicate_phase_names(self):
        with pytest.raises(ValueError, match="duplicate phase"):
            self._spec(
                phases=[
                    PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 1}),
                    PhaseSpec("ramp", PhaseKind.PUBLISH_BURST, {"count": 1}),
                ]
            )

    @pytest.mark.parametrize("cap", (0, -3, 2.5, True, "7"))
    def test_rejects_a_cap_that_is_not_an_int_of_at_least_one(self, cap):
        # rejected at the boundary, not deep in a checker or a shard worker
        # at run time, nor truncated (2.5); trace replay goes via from_dict
        with pytest.raises(ValueError, match="max_iterations must be an int >= 1"):
            self._spec(max_iterations=cap)
        payload = self._spec().to_dict()
        payload["max_iterations"] = cap
        with pytest.raises(ValueError, match="max_iterations must be an int >= 1"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("delta", (0.0, 1.0, -0.5, 1.5, float("nan"), "0.1"))
    def test_rejects_a_delta_outside_the_open_unit_interval(self, delta):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            self._spec(delta=delta)
        payload = self._spec().to_dict()
        payload["delta"] = delta
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            ScenarioSpec.from_dict(payload)

    def test_accepts_an_integer_cap_of_any_integer_type(self):
        assert self._spec(max_iterations=1).max_iterations == 1
        assert self._spec(max_iterations=np.int64(7)).max_iterations == 7


class TestMetricsSnapshot:
    def test_diff_reports_counter_deltas(self):
        metrics = NetworkMetrics()
        metrics.publication_messages = 3
        metrics.notifications = 2
        metrics.expected_notifications = 2
        before = metrics.snapshot()
        metrics.publication_messages = 10
        metrics.notifications = 5
        metrics.expected_notifications = 6
        delta = metrics.diff(before)
        assert delta["publication_messages"] == 7
        assert delta["notifications"] == 3
        assert delta["expected_notifications"] == 4
        assert delta["missed_notifications"] == 1
        assert delta["delivery_ratio"] == pytest.approx(0.75)

    def test_diff_with_nothing_expected_reports_full_delivery(self):
        empty = MetricsSnapshot()
        assert empty.diff(MetricsSnapshot())["delivery_ratio"] == 1.0

    def test_snapshot_is_immutable_copy(self):
        metrics = NetworkMetrics()
        snapshot = metrics.snapshot()
        metrics.notifications = 99
        assert snapshot.notifications == 0
        with pytest.raises(AttributeError):
            snapshot.notifications = 1

    def test_network_mark_phase_records_snapshots(self):
        network = BrokerNetwork([("B1", "B2")])
        first = network.mark_phase("ramp")
        second = network.mark_phase("burst")
        assert [name for name, _ in network.phase_marks] == ["ramp", "burst"]
        assert network.phase_marks[0][1] is first
        assert network.phase_marks[1][1] is second
