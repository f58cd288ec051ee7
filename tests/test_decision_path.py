"""One subscription-decision path: pinned decision streams, no caches.

Every reduction decision — a broker's per-link covering decision, a
store's insertion and re-insertion — goes straight to the strategy's
``decide``.  Nothing here looks at a clock.  Two kinds of test:

* byte-identity: per ``(scenario, policy, backend)`` a SHA-256 over every
  decision the run took (each broker's ``decisions`` list on the network
  backend, every store decision on the engine backend) and one over the
  run's totals (plus ``engine.store.stats`` on the engine backend) must
  equal ``tests/data/decision_stream_hashes.json``.  The table was
  captured while a per-link decision memo and a checker verdict cache
  still stood in front of ``decide``; ``compute_hash_table`` regenerates
  it, and should only be run for a deliberate stream change.  The eight
  ``pairwise``/``group`` engine ``totals`` were re-pinned once, when the
  engine's covered set went from a cover-forest walk to a flat pass
  (``covered_tests`` moved; every ``decisions`` digest and every total
  but ``covered_tests`` stayed equal).  The engine rows were re-pinned a
  second time when every broker link became a store and the store took
  over the link rules: no demotion, and a merge drops an absorbed box and
  moves its members to the new one.  All 20 ``network`` rows and the four
  ``none/engine`` ``decisions`` digests stayed equal; 12 engine
  ``decisions`` digests moved (every ``pairwise``/``group`` row, where the
  parent demoted 3-99 times per run, and the ``t1-churn`` and
  ``t2-merge-stress`` ``merging``/``hybrid`` rows, where unsubscriptions
  reached merged members), and all 20 engine ``totals`` (the store stats
  lost their ``demoted`` key).  The eight ``merging``/``hybrid`` engine
  ``totals`` were re-pinned a third time when
  ``engine.subscriptions_total`` stopped counting merged boxes (it counts
  the subscriptions clients registered, as it does at any shard count):
  every ``decisions`` digest and every other total stayed equal.
* the census that made those caches dead weight: on the same runs no
  broker decides the same ``(subscription id, bounds, link advertisement
  ids)`` twice, and no store the same ``(subscription id, bounds, active
  ids)``.  Scenario ids are unique, and every decision that changes a
  link or the active pool changes the ids the next one sees.  A workload
  that breaks this is where a decision cache could pay.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.core.policies import strategy_names
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios import runner as runner_module
from repro.scenarios.events import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioRunner

HASH_TABLE = Path(__file__).parent / "data" / "decision_stream_hashes.json"
SEED = 7
POLICIES = ("none", "pairwise", "group", "merging", "hybrid")
SCENARIOS = ("t0-smoke", "t1-churn", "t2-merge-stress", "t2-burst-scaled")
BACKENDS = ("network", "engine")


def scenario_spec(name: str, policy: str):
    """The catalog spec under ``policy``; ``t2-burst-scaled`` is t2-burst
    with every integer phase parameter divided by four."""
    if name == "t2-burst-scaled":
        spec = get_scenario("t2-burst")
        spec = dataclasses.replace(
            spec,
            name=name,
            phases=[
                dataclasses.replace(
                    phase,
                    params={
                        key: max(value // 4, 1) if isinstance(value, int) else value
                        for key, value in phase.params.items()
                    },
                )
                for phase in spec.phases
            ],
        )
    else:
        spec = get_scenario(name)
    return dataclasses.replace(spec, policy=policy)


def _decision_row(decision, **where) -> Dict:
    merged = decision.merged
    return {
        **where,
        "forwarded": bool(decision.forwarded),
        "candidates": int(decision.candidates_considered),
        "rspc_iterations": int(decision.rspc_iterations),
        "covered_by": list(decision.covered_by),
        "replaced": list(decision.replaced),
        "false_volume": float(decision.false_volume),
        "merged": (
            None if merged is None else [merged.lows.tolist(), merged.highs.tolist()]
        ),
    }


def _digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _bounds(subscription) -> Tuple[bytes, bytes]:
    return subscription.lows.tobytes(), subscription.highs.tobytes()


def _log_decisions(store, keys: List[Tuple], prefix=(), rows=None) -> None:
    """Log ``(*prefix, subscription id, bounds, advertised ids)`` of every
    decision ``store`` takes into ``keys``, and the decision into ``rows``."""
    decide = store._decide

    def recorded(subscription):
        advertised = tuple(s.id for s in store.active)
        keys.append((*prefix, subscription.id, *_bounds(subscription), advertised))
        decision = decide(subscription)
        if rows is not None:
            rows.append(_decision_row(decision, subscription=subscription.id))
        return decision

    store._decide = recorded


@functools.lru_cache(maxsize=None)
def run(scenario: str, policy: str, backend: str) -> Dict:
    """One seeded run: its two digests and its census.

    ``decisions`` and ``totals`` are the committed digests;
    ``decisions_taken`` counts the decisions and ``repeats`` those whose
    census key the same broker link (or store) had already seen.
    """
    spec = scenario_spec(scenario, policy)
    compiled = compile_scenario(spec, SEED)
    built = []
    census: Dict[str, List[Tuple]] = {}
    store_rows: List[Dict] = []
    with pytest.MonkeyPatch.context() as patch:
        if backend == "network":
            network_class = runner_module.BrokerNetwork

            def network(*args, **kwargs):
                built.append(network_class(*args, **kwargs))
                for broker in built[-1].brokers.values():
                    for neighbor, link in broker.links.items():
                        keys = census.setdefault(broker.id, [])
                        _log_decisions(link, keys, prefix=(neighbor,))
                return built[-1]

            patch.setattr(runner_module, "BrokerNetwork", network)
        else:
            engine_class = runner_module.MatchingEngine

            def engine(*args, **kwargs):
                built.append(engine_class(*args, **kwargs))
                _log_decisions(
                    built[-1].store, census.setdefault("store", []), rows=store_rows
                )
                return built[-1]

            patch.setattr(runner_module, "MatchingEngine", engine)
        report = ScenarioRunner(spec, seed=SEED, backend=backend).run(compiled)
    (system,) = built
    if backend == "network":
        rows = (
            _decision_row(
                decision,
                broker=decision.broker,
                subscription=decision.subscription.id,
                neighbor=decision.neighbor,
            )
            for broker in system.brokers.values()
            for decision in broker.decisions
        )
        totals = report.totals
    else:
        rows = store_rows
        totals = {"report": report.totals, "store": system.store.stats}
    return {
        "decisions": _digest(rows),
        "totals": _digest([totals]),
        "decisions_taken": sum(len(keys) for keys in census.values()),
        "repeats": sum(len(keys) - len(set(keys)) for keys in census.values()),
    }


def compute_hash_table() -> Dict[str, Dict[str, str]]:
    """``{"scenario/policy/backend": {"decisions": ..., "totals": ...}}``."""
    return {
        f"{scenario}/{policy}/{backend}": {
            key: run(scenario, policy, backend)[key] for key in ("decisions", "totals")
        }
        for scenario in SCENARIOS
        for policy in POLICIES
        for backend in BACKENDS
    }


class TestDecisionStreamsUnchanged:
    """Every ``(scenario, policy, backend)`` keeps its committed digests."""

    # (importable without the file, so that compute_hash_table can write it)
    TABLE = json.loads(HASH_TABLE.read_text()) if HASH_TABLE.exists() else {}

    def test_every_policy_swept(self):
        assert set(POLICIES) == set(strategy_names())

    def test_table_is_complete(self):
        assert set(self.TABLE) == {
            f"{scenario}/{policy}/{backend}"
            for scenario in SCENARIOS
            for policy in POLICIES
            for backend in BACKENDS
        }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_digests_equal_committed(self, scenario, policy, backend):
        got = run(scenario, policy, backend)
        assert {
            "decisions": got["decisions"],
            "totals": got["totals"],
        } == self.TABLE[f"{scenario}/{policy}/{backend}"]


def test_census_no_decision_key_recurs():
    """No broker link and no store ever takes the same decision twice.

    Per run: no broker decides the same ``(subscription id, bounds, link
    advertisement ids)`` toward the same link twice, and no store the same
    ``(subscription id, bounds, active ids)``.  That is why a per-link
    decision memo and a checker verdict cache keyed on the candidate
    snapshot never hit.  The only recurrences are across links: early in a
    run a broker's links can hold the same advertisements, and one
    subscription is then decided against equal sets toward each (5-7
    decisions per network run here, out of hundreds to thousands).
    """
    repeats = {}
    for scenario in SCENARIOS:
        for policy in POLICIES:
            for backend in BACKENDS:
                got = run(scenario, policy, backend)
                assert got["decisions_taken"] > 0
                if got["repeats"]:
                    repeats[f"{scenario}/{policy}/{backend}"] = got["repeats"]
    assert repeats == {}
