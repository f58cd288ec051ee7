"""Tests for the scenario registry and the canonical catalog."""

import pytest

from repro.scenarios import (
    CANONICAL_TIERS,
    REGISTRY,
    ScenarioRegistry,
    ScenarioRunner,
    compile_scenario,
    get_scenario,
)
from repro.scenarios.spec import PhaseKind, PhaseSpec, ScenarioSpec


class TestRegistry:
    def test_register_get_round_trip(self):
        registry = ScenarioRegistry()

        @registry.register
        def tiny() -> ScenarioSpec:
            return ScenarioSpec(
                name="tiny",
                phases=[PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 1})],
            )

        assert registry.names() == ["tiny"]
        spec = registry.get("tiny")
        assert spec.name == "tiny"
        # every get() returns a fresh spec
        assert registry.get("tiny") is not spec

    def test_register_validates_at_registration_time(self):
        registry = ScenarioRegistry()
        with pytest.raises(TypeError, match="must return a ScenarioSpec"):
            registry.register(lambda: "not a spec")

    def test_register_rejects_duplicates(self):
        registry = ScenarioRegistry()

        def make():
            return ScenarioSpec(
                name="dup",
                phases=[PhaseSpec("ramp", PhaseKind.SUBSCRIBE_RAMP, {"count": 1})],
            )

        registry.register(make)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(make)

    def test_register_rejects_mismatched_name(self):
        registry = ScenarioRegistry()
        with pytest.raises(ValueError, match="does not match"):
            registry.register(
                lambda: ScenarioSpec(
                    name="actual",
                    phases=[PhaseSpec("r", PhaseKind.SUBSCRIBE_RAMP, {"count": 1})],
                ),
                name="expected",
            )

    def test_get_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="t0-smoke"):
            REGISTRY.get("no-such-scenario")


class TestCatalog:
    def test_canonical_tiers_are_registered(self):
        names = REGISTRY.names()
        assert len(names) >= 6
        for name in CANONICAL_TIERS:
            assert name in names

    def test_tier_labels_cover_t0_to_t3(self):
        tiers = {get_scenario(name).tier for name in CANONICAL_TIERS}
        assert tiers == {"T0", "T1", "T2", "T3"}

    def test_t1_churn_actually_churns(self):
        spec = get_scenario("t1-churn")
        kinds = {phase.kind for phase in spec.phases}
        assert PhaseKind.SUBSCRIBE_RAMP in kinds
        assert PhaseKind.UNSUBSCRIBE_STORM in kinds

    def test_every_catalog_spec_compiles(self):
        for name in CANONICAL_TIERS:
            compiled = compile_scenario(get_scenario(name), seed=0)
            assert compiled.event_count > 0, name
            assert compiled.clients, name

    def test_register_get_run_round_trip(self):
        spec = get_scenario("t0-smoke")
        report = ScenarioRunner(spec, seed=11).run()
        assert report.scenario == "t0-smoke"
        assert report.event_count > 0
        assert [phase.name for phase in report.phases] == [phase.name for phase in spec.phases]
