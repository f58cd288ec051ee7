"""Checks of the benchmark itself (``pytest bench/tests``; uses ``--quick``).

Not part of the tier-1 suite: ``pyproject.toml`` collects ``tests/`` only.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import metrics as metric_tables  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def suite_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench") / "result.json"
    done = run_bench("--quick", "--seed", "7", "--out", str(out))
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text())


def test_contract_file_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["command"] == ["python3", "bench/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(CONTRACT["per_layer"]) <= 128


def test_contract_file_matches_the_tables():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in CONTRACT["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    by_name = {m.name: m for m in metric_tables.END_TO_END}
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]
    ] == [
        (n, by_name[n].unit, by_name[n].better, by_name[n].bound)
        for n in metric_tables.CONTRACT_END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]
    ] == list(metric_tables.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_contract_run_emits_every_listed_metric(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--quick",
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    listed = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        emitted = line["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


#: runs the benchmark as a child subreaper (PR_SET_CHILD_SUBREAPER = 36), so
#: that whatever a run leaves behind is re-parented here and can be seen
LEFT_BEHIND = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
done = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL)
try:
    print(done.returncode, os.waitpid(-1, os.WNOHANG)[0])
except ChildProcessError:
    print(done.returncode, "none")
"""


@pytest.mark.parametrize(
    "workload, trace", [("cycle-sharded", 0), ("cycle-sharded", 1), ("cycle-engine", 1)]
)
def test_a_run_leaves_no_process_behind(workload, trace):
    # the runs that start shard workers, and with them multiprocessing's
    # resource tracker, which would otherwise outlive the benchmark
    done = subprocess.run(
        [
            sys.executable, "-c", LEFT_BEHIND, sys.executable, "bench/run.py",
            "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--quick",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.stdout.split() == ["0", "none"], done.stdout + done.stderr


def test_suite_result_schema(suite_result):
    assert suite_result["schema_version"] == 1
    assert set(suite_result["provenance"]) >= {
        "git_sha", "git_dirty", "cores", "python", "numpy", "seed", "scale", "inputs",
    }
    assert list(suite_result["workloads"]) == list(WORKLOADS)
    for name, record in suite_result["workloads"].items():
        expected = {m.name for m in metric_tables.END_TO_END if name in m.applies}
        assert set(record["end_to_end"]) == expected
        assert set(record["end_to_end"]) | set(record["per_layer"]) >= {
            n for n, _, _ in metric_tables.PER_LAYER
        }
        for metric_name, metric in {**record["end_to_end"], **record["per_layer"]}.items():
            assert NAME.match(metric_name)
            assert UNIT.match(metric["unit"])
        assert record["failed"] <= record["attempted"]
        assert "trace.overhead_fraction" in record["per_layer"]
        assert len(record["sub_seeds"]) == suite_result["provenance"]["inputs"]


def test_compare_passes_identical_results(suite_result):
    outcome = compare.compare(suite_result, suite_result)
    assert {row["verdict"] for row in outcome["rows"]} == {"ok"}
    assert outcome["changed_counts"] == []


def test_compare_flags_a_synthetic_regression(suite_result, tmp_path):
    slower = copy.deepcopy(suite_result)
    metric = slower["workloads"]["cycle-engine"]["end_to_end"]["events_per_s"]
    metric["value"] *= 0.7
    metric["samples"] = [sample * 0.7 for sample in metric["samples"]]
    slower["workloads"]["churn-overlay"]["end_to_end"]["suppressed_fraction"][
        "value"
    ] -= 0.01
    outcome = compare.compare(suite_result, slower)
    regressions = {
        (row["workload"], row["metric"])
        for row in outcome["rows"]
        if row["verdict"] == "regression"
    }
    assert regressions == {
        ("cycle-engine", "events_per_s"),
        ("churn-overlay", "suppressed_fraction"),
    }
    base_path, new_path = tmp_path / "a.json", tmp_path / "b.json"
    base_path.write_text(json.dumps(suite_result))
    new_path.write_text(json.dumps(slower))
    assert compare.main([str(base_path), str(base_path)]) == 0
    assert compare.main([str(base_path), str(new_path)]) == 1


def test_compare_refuses_results_of_different_seeds(suite_result, tmp_path):
    other = copy.deepcopy(suite_result)
    other["provenance"]["seed"] += 1
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps(suite_result))
    paths[1].write_text(json.dumps(other))
    assert compare.main([str(p) for p in paths]) == 2


def test_quick_results_are_never_recordable():
    done = run_bench("--quick", "--record")
    assert done.returncode == 2
    assert not (BENCH_DIR / "baseline.json").exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", ".out", ".pytest_cache"),
    )
    done = run_bench(
        "--workload", "churn-overlay", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
