"""Whole scenario reports pinned against committed goldens.

Each case runs one seeded scenario and compares its full
``report.to_dict()``, wall-clock keys stripped, to a JSON file under
``tests/data/reports``.  The cases cover what the pre-observability
goldens (``tests/test_obs.py``) leave out: per-phase delivery-latency
percentiles and queue-depth high-water marks under a timed latency
model, a stochastic latency model, and the sharded engine's report.

Regenerate the files with ``python tests/test_report_goldens.py`` only
for a deliberate change of a reported number.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner

REPORTS = Path(__file__).parent / "data" / "reports"
SEED = 7

#: golden name -> (scenario, runner keyword arguments)
CASES = {
    "t0-latency-network": ("t0-latency", {"backend": "network"}),
    "t0-smoke-lognormal": (
        "t0-smoke",
        {"backend": "network", "latency_model": "lognormal:0.0,0.5"},
    ),
    "t1-churn-engine-shards2": ("t1-churn", {"backend": "engine", "shards": 2}),
}

#: keys stripped from reports (wall-clock dependent)
VOLATILE = {"wall_time", "events_per_second"}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def produce(name: str) -> Dict:
    """The stripped, JSON-round-tripped report of one case."""
    scenario, kwargs = CASES[name]
    report = ScenarioRunner(get_scenario(scenario), seed=SEED, **kwargs).run()
    return _strip(json.loads(json.dumps(report.to_dict())))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_equals_golden(name):
    golden = json.loads((REPORTS / f"{name}.report.json").read_text())
    assert produce(name) == golden


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        path = REPORTS / f"{case}.report.json"
        path.write_text(json.dumps(produce(case), indent=2, sort_keys=True) + "\n")
        print("wrote", path)
