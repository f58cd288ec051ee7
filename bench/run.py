#!/usr/bin/env python3
"""The repository's benchmark: five workloads, named metrics, built-in checks.

Two ways in (``bench/README.md`` is the contract):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one run.  Generates five inputs from sub-seeds of ``N``,
    replays them pass after pass until ``S`` seconds have gone by, checks
    the outputs, and prints one JSON object as the last line of stdout:
    the end-to-end metrics (``--trace 0``, tracing off) or the per-layer
    metrics (``--trace 1``).

``python3 bench/run.py [--seed 7] [--out PATH] [--quick] [--record]``
    The whole suite: every workload untraced and traced, each in its own
    subprocess with a fixed pass count, every metric printed by name and
    unit, one schema-versioned result written to ``PATH``.

Exits non-zero, printing no result, when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import measure  # noqa: E402
import metrics as metric_tables  # noqa: E402
from workloads import QUICK_SCALE, WORKLOADS  # noqa: E402

SCHEMA_VERSION = 1

#: passes of every workload in ``--quick`` suite runs
QUICK_PASSES = 2


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def contract_line(result: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if result["trace"]:
        names = [name for name, _, _ in metric_tables.PER_LAYER]
    else:
        names = list(metric_tables.CONTRACT_END_TO_END)
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {
                    "value": result["metrics"][name]["value"],
                    "unit": result["metrics"][name]["unit"],
                }
                for name in names
            },
        }
    )


def print_metrics(result: Dict[str, Any]) -> None:
    print(
        f"# {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"passes {result['passes']}  scale {result['scale']}  "
        f"failed {result['failed']}/{result['attempted']}"
    )
    for name, metric in result["metrics"].items():
        if metric["value"] or not result["trace"]:
            print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for check, outcome in result.get("checks", {}).items():
        print(f"check {check}: {json.dumps(outcome)}")


def run_one(args: argparse.Namespace) -> int:
    scale = QUICK_SCALE if args.quick else 1.0
    try:
        result = measure.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scale, args.passes
        )
        dominance = result.get("checks", {}).get("dominance")
        if dominance is not None and not args.quick:
            measure.require(
                dominance["holds"],
                f"layer dominance of {args.workload} is {dominance['share']:.3f}, "
                f"not {dominance['relation']} {dominance['limit']}: recalibrate sizes",
            )
    except measure.CheckFailed as failure:
        print(f"bench: check failed on {args.workload}: {failure}", file=sys.stderr)
        return 1
    print_metrics(result)
    if args.detail:
        Path(args.detail).write_text(json.dumps(result))
    print(contract_line(result))
    return 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def git(*arguments: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *arguments], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cores": measure.available_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "scale": QUICK_SCALE if args.quick else 1.0,
        "inputs": measure.INPUTS,
        "recorded_unix": int(time.time()),
    }


def run_suite(args: argparse.Namespace) -> int:
    stamp = provenance(args)
    if args.record:
        if args.quick:
            print("bench: --quick results are never recordable", file=sys.stderr)
            return 2
        if stamp["git_dirty"] is not False:
            print("bench: --record refuses a dirty (or unknown) tree", file=sys.stderr)
            return 2
    scratch = BENCH_DIR / ".out"
    scratch.mkdir(exist_ok=True)
    workloads: Dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        # a fixed pass count, so that two suite runs on one seed do the
        # same work and their exact counts compare digit for digit
        passes = QUICK_PASSES if args.quick else workload.suite_passes
        halves = []
        for trace in (0, 1):
            detail = scratch / f"{name}.{trace}.json"
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(trace), "--passes", str(passes),
                "--detail", str(detail),
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"bench: {name} --trace {trace} failed; no result written",
                      file=sys.stderr)
                return 1
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            halves.append(json.loads(detail.read_text()))
            detail.unlink()
        workloads[name] = merge_halves(*halves)
    result = {"schema_version": SCHEMA_VERSION, "provenance": stamp, "workloads": workloads}
    out = Path(args.out) if args.out else None
    if args.record:
        out = BENCH_DIR / "baseline.json"
    if out is not None:
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"bench: result written to {out}")
    return 0


def merge_halves(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    """One workload's suite record: timings untraced, layers and counts traced."""
    applicable = [
        m.name for m in metric_tables.END_TO_END if untraced["workload"] in m.applies
    ]
    exact = ("suppressed_fraction", "failed_fraction")
    end_to_end = {
        name: (traced if name in exact else untraced)["metrics"][name]
        for name in applicable
    }
    return {
        "passes": untraced["passes"],
        "sub_seeds": untraced["sub_seeds"],
        "trace_hashes": untraced["trace_hashes"],
        "events_per_input": untraced["events_per_input"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "end_to_end": end_to_end,
        "per_layer": {
            name: metric
            for name, metric in traced["metrics"].items()
            if name not in end_to_end
        },
        "checks": traced["checks"],
    }


def stop_started_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    Shard workers are shut down by whoever built them.  What outlives them
    is multiprocessing's resource tracker: the shard coordinator starts it,
    it ignores SIGTERM, and it ends only once this process has — too late
    for a caller that looks for stragglers the moment the benchmark exits
    (and an orphan nobody reaps where PID 1 does not).  Closing its pipe
    ends it; by now the workers have unlinked their shared memory, so it
    has nothing left to clean up.
    """
    for child in multiprocessing.active_children():
        # a worker whose coordinator an exception or a signal skipped
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of one run (ignored with --passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="replay every input exactly this many times")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke mode at scale {QUICK_SCALE}; never recordable")
    parser.add_argument("--detail", help="also write the run's full record here")
    parser.add_argument("--out", help="suite mode: write the result here")
    parser.add_argument("--record", action="store_true",
                        help="suite mode: write bench/baseline.json (clean tree only)")
    args = parser.parse_args(argv)
    # a killed run leaves through the ``finally`` below too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload:
            return run_one(args)
        return run_suite(args)
    finally:
        stop_started_processes()


if __name__ == "__main__":
    sys.exit(main())
