"""Command-line interface of the scenario harness.

::

    python -m repro.scenarios list                    # registered scenarios
    python -m repro.scenarios describe t1-churn       # spec + timeline
    python -m repro.scenarios run t1-churn --seed 7   # execute + report
    python -m repro.scenarios run t1-churn --seed 7 --trace run.jsonl
    python -m repro.scenarios replay run.jsonl        # byte-exact re-run

``run`` and ``replay`` print the same per-phase metric table; a replay of
a recorded trace reproduces the original run's metrics exactly (wall
times excepted).  ``--latency-model`` selects the simulation kernel's
per-link hop latency model (``zero``, ``fixed[:delay]``,
``lognormal[:mu,sigma]``); ``--policy`` selects the reduction strategy
every broker applies (``none``/``pairwise``/``group``/``merging``/
``hybrid``, with ``--merge-budget`` bounding the merging strategies'
false volume).  All these choices are folded into the spec, so traces
record them and replays default to them.  ``--json`` emits the
machine-readable report instead.

Observability: ``run --obs-spans PATH`` attaches a probe with a span
recorder and exports the run's hop-level causal spans as JSONL (render
them with ``repro-obs report``); ``run --metrics-json PATH`` dumps the
final metric totals plus the per-phase metric deltas as JSON.  Both are
purely observational — the metric table, the trace file and its hash
are unchanged by either flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.broker.sim import parse_latency_model
from repro.core.policies import policy_value, strategy_names
from repro.obs.probes import ObsProbe
from repro.obs.spans import SpanRecorder, write_spans
from repro.scenarios import catalog  # noqa: F401 - populates the registry
from repro.scenarios.events import compile_scenario
from repro.scenarios.registry import REGISTRY
from repro.scenarios.runner import ScenarioReport, ScenarioRunner
from repro.scenarios.trace import TraceError, read_trace, write_trace
from repro.utils.tables import render_table

__all__ = ["main"]


def _cmd_list(arguments: argparse.Namespace) -> int:
    rows = []
    for name, spec in REGISTRY.items():
        if arguments.tier and spec.tier.lower() != arguments.tier.lower():
            continue
        rows.append(
            (name, spec.tier, spec.workload, spec.topology.kind,
             str(len(spec.phases)), spec.description)
        )
    if not rows:
        print("no scenarios registered" + (f" for tier {arguments.tier}" if arguments.tier else ""))
        return 1
    labels = ("name", "tier", "workload", "topology", "phases", "description")
    print(render_table(labels, rows))
    return 0


def _get_spec(name: str):
    try:
        return REGISTRY.get(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_describe(arguments: argparse.Namespace) -> int:
    spec = _get_spec(arguments.name)
    if arguments.json:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"{spec.name} ({spec.tier}) — {spec.description}")
    print(f"  workload : {spec.workload} {dict(spec.workload_params) or ''}".rstrip())
    print(f"  topology : {spec.topology.kind} ({spec.topology.broker_count} brokers)")
    print(f"  clients  : {spec.clients}")
    print(f"  policy   : {policy_value(spec.policy)} (delta={spec.delta:g}, "
          f"max_iterations={spec.max_iterations})")
    if policy_value(spec.policy) in ("merging", "hybrid"):
        print(f"  merge    : budget {spec.merge_budget:g}")
    print(f"  latency  : {spec.latency_model}")
    if spec.tags:
        print(f"  tags     : {', '.join(spec.tags)}")
    print("  timeline :")
    for phase in spec.phases:
        params = ", ".join(f"{key}={value}" for key, value in phase.params.items())
        print(f"    {phase.name:<14} {phase.kind.value:<18} {params}")
    return 0


def _cmd_run(arguments: argparse.Namespace) -> int:
    spec = _get_spec(arguments.name)
    if arguments.latency_model:
        spec = dataclasses.replace(spec, latency_model=arguments.latency_model)
    if arguments.policy:
        spec = dataclasses.replace(spec, policy=arguments.policy)
    if arguments.merge_budget is not None:
        spec = dataclasses.replace(spec, merge_budget=arguments.merge_budget)
    recorder = None
    obs = None
    if arguments.obs_spans:
        recorder = SpanRecorder()
        obs = ObsProbe(spans=recorder)
    runner = _runner(
        spec,
        seed=arguments.seed,
        backend=arguments.backend,
        obs=obs,
        shards=arguments.shards,
    )
    compiled = compile_scenario(spec, arguments.seed)
    if arguments.trace:
        digest = write_trace(arguments.trace, compiled, backend=arguments.backend)
        print(f"[trace written to {arguments.trace} ({digest[:12]}…)]",
              file=sys.stderr)
    report = _execute(runner, compiled)
    if recorder is not None:
        count = write_spans(arguments.obs_spans, recorder)
        print(
            f"[{count} spans ({len(recorder.traces())} traces) written to "
            f"{arguments.obs_spans}]",
            file=sys.stderr,
        )
    if arguments.metrics_json:
        payload = {
            "scenario": report.scenario,
            "seed": report.seed,
            "backend": report.backend,
            "policy": report.policy,
            "trace_hash": report.trace_hash,
            "totals": dict(report.totals),
            "phases": [
                {"name": phase.name, "metrics": dict(phase.metrics)}
                for phase in report.phases
            ],
        }
        with open(arguments.metrics_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[metrics written to {arguments.metrics_json}]", file=sys.stderr)
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_replay(arguments: argparse.Namespace) -> int:
    compiled = read_trace(arguments.trace, verify=not arguments.no_verify)
    # Default to the backend the trace was recorded from, so a bare
    # `replay` reproduces the original run's metrics.
    backend = arguments.backend or compiled.recorded_backend or "network"
    latency_model = (
        arguments.latency_model or compiled.recorded_latency_model
    )
    runner = _runner(
        backend=backend,
        latency_model=latency_model,
        shards=arguments.shards,
    )
    report = _execute(runner, compiled)
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _runner(*args, **kwargs) -> ScenarioRunner:
    """Build the runner, turning a rejected configuration into exit 2."""
    try:
        return ScenarioRunner(*args, **kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _execute(runner: ScenarioRunner, compiled) -> ScenarioReport:
    """Run the scenario, turning a virtual-clock overflow into exit 2."""
    try:
        return runner.run(compiled)
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--shards`` flag of run and replay.

    Sharding is a deployment choice, not part of the spec: traces and
    their hashes never record it, so a trace recorded single-process
    replays sharded (and vice versa).
    """
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run the engine backend's decision pool in N shard worker "
             "processes (0 = single-process, the default; the network "
             "backend rejects N > 0)",
    )


def _latency_model(value: str) -> str:
    """argparse type hook: validate a latency-model spec string."""
    try:
        parse_latency_model(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.scenarios``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Registry-driven, replayable dynamic-workload scenarios.",
        epilog="Static paper figures live in `python -m repro.experiments`.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--tier", default=None, help="only show one tier")
    list_parser.set_defaults(handler=_cmd_list)

    describe = commands.add_parser("describe", help="show one scenario's spec")
    describe.add_argument("name", help="registered scenario name")
    describe.add_argument("--json", action="store_true", help="emit the spec as JSON")
    describe.set_defaults(handler=_cmd_describe)

    run = commands.add_parser("run", help="compile and execute a scenario")
    run.add_argument("name", help="registered scenario name")
    run.add_argument("--seed", type=int, default=0, help="compilation/backend seed")
    run.add_argument(
        "--backend",
        choices=("network", "engine"),
        default="network",
        help="drive the broker overlay (default) or a single matching engine",
    )
    run.add_argument(
        "--latency-model",
        type=_latency_model,
        default=None,
        metavar="MODEL",
        help="per-link hop latency model of the simulation kernel "
             "(zero, fixed[:delay], lognormal[:mu,sigma]; "
             "default: the spec's latency_model field)",
    )
    run.add_argument(
        "--policy",
        choices=strategy_names(),
        default=None,
        help="reduction strategy every broker applies "
             "(default: the spec's policy field); folded into the spec so "
             "traces record it and replays honour it",
    )
    run.add_argument(
        "--merge-budget",
        type=float,
        default=None,
        metavar="FRACTION",
        help="false-volume budget of the merging/hybrid strategies "
             "(default: the spec's merge_budget field)",
    )
    _add_shard_arguments(run)
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record the compiled event stream as a JSONL trace")
    run.add_argument(
        "--obs-spans",
        default=None,
        metavar="PATH",
        help="record hop-level causal spans and export them as JSONL "
             "(render with `repro-obs report PATH`)",
    )
    run.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="dump the final metric totals and per-phase deltas as JSON",
    )
    run.add_argument("--json", action="store_true", help="emit the report as JSON")
    run.set_defaults(handler=_cmd_run)

    replay = commands.add_parser("replay", help="re-run a recorded trace")
    replay.add_argument("trace", help="path to a trace written by `run --trace`")
    replay.add_argument(
        "--backend",
        choices=("network", "engine"),
        default=None,
        help="backend to replay against (default: the one the trace records)",
    )
    replay.add_argument(
        "--latency-model",
        type=_latency_model,
        default=None,
        metavar="MODEL",
        help="latency model to replay with "
             "(default: the one the trace records)",
    )
    _add_shard_arguments(replay)
    replay.add_argument("--no-verify", action="store_true",
                        help="skip the event-count / trace-hash check")
    replay.add_argument("--json", action="store_true", help="emit the report as JSON")
    replay.set_defaults(handler=_cmd_replay)

    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (TraceError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
