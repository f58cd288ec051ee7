"""Entry-point census: every function under ``src/`` is reached or named.

The census runs the project's non-test entry points in this process under
``sys.setprofile`` and ``threading.setprofile``, records the code object of
every Python ``call`` under ``src/``, and matches each one to its ``ast``
definition by file, first line (the first decorator's line, or the ``def``
line) and name.  A function no entry point reaches must be on
:data:`ALLOWLIST` with its reason; a newly unreached function fails the
test, and so does an allowlist entry that has become reached or no longer
exists.  To clear a failure, give the function a caller in an entry point
(or delete it), or add it to the allowlist with a reason.

The entry points run:

* the four ``examples/``, ``repro.experiments all`` (quick defaults) and
  ``repro.experiments eq2 --csv``;
* ``repro.scenarios run`` on the nine T0-T2 tiers, on both backends;
* ``t1-churn`` under the five policies on the network, the engine and the
  engine over two shards;
* one run with ``--trace``, ``--obs-spans`` and ``--metrics-json``, then
  ``replay``, ``describe``, ``list`` and ``repro-obs report``;
* ``t0-latency`` under ``lognormal:0.0,0.5``;
* ``bench/run.py --quick --passes 1`` on the five workloads at ``--trace 0``
  and ``1`` (the suite runs two passes; one reaches the same functions).

Not traced: the shard workers, which run in forked children; ``t3``/``t4``;
bench at full scale; ``--paper``.  Functions whose body is only a docstring,
``...``, ``pass`` or ``raise NotImplementedError`` (protocol stubs), and
those whose ``def`` line carries ``# pragma: no cover`` (the trivial
reprs), are not counted.

``python tests/test_entry_census.py`` prints the census and every unreached
function with its body lines.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import signal
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"
EXAMPLES = ("quickstart", "bike_rental_pubsub", "distributed_brokers",
            "grid_resource_discovery")
POLICIES = ("none", "pairwise", "group", "merging", "hybrid")
SEED = "7"


#: the marker of a function kept out of coverage on purpose (trivial reprs)
_PRAGMA = "pragma: no cover"


class Function(NamedTuple):
    """One ``def`` under ``src/``: its census key and its size."""

    key: str  # "repro/pkg/module.py::Qual.name"
    body_lines: int


def function_defs() -> Dict[Tuple[str, int, str], Function]:
    """Every counted function under ``src/``, keyed like a code object.

    The key is (absolute file, ``co_firstlineno``, ``co_name``): the first
    line is the first decorator's line for a decorated function.
    """
    found: Dict[Tuple[str, int, str], Function] = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        lines = text.split("\n")
        tree = ast.parse(text, filename=str(path))
        relative = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    if any(
                        isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
                        for d in child.decorator_list
                    ):
                        qualname += ".setter"
                    if not _is_stub(child) and _PRAGMA not in lines[child.lineno - 1]:
                        first = min(
                            [child.lineno] + [d.lineno for d in child.decorator_list]
                        )
                        found[(str(path), first, child.name)] = Function(
                            f"{relative}::{qualname}",
                            child.end_lineno - child.body[0].lineno + 1,
                        )
                    visit(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def _is_stub(node: ast.AST) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise
    NotImplementedError`` (an abstract method)."""
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Raise) and "NotImplementedError" in ast.unparse(
            statement
        ):
            continue
        return False
    return True


_RECORDING = False


def _after_fork_in_child() -> None:
    # a forked shard worker is not part of the census: stop recording there
    if _RECORDING:
        sys.setprofile(None)
        threading.setprofile(None)


os.register_at_fork(after_in_child=_after_fork_in_child)


@contextlib.contextmanager
def recording() -> Iterator[Set[Tuple[str, int, str]]]:
    """Record the code objects of every Python call under ``src/``."""
    global _RECORDING
    reached: Set[Tuple[str, int, str]] = set()
    prefix = str(SRC) + os.sep
    seen: Set[object] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                filename = os.path.abspath(code.co_filename)
                if filename.startswith(prefix):
                    reached.add((filename, code.co_firstlineno, code.co_name))

    _RECORDING = True
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield reached
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        _RECORDING = False


@contextlib.contextmanager
def fresh_imports() -> Iterator[None]:
    """Import ``repro`` and ``bench`` anew inside, and restore them after.

    Import-time calls (the scenario and strategy registries' decorators)
    are part of what the entry points reach, so the census imports the
    package again under the recorder; the modules the rest of the test
    session holds come back afterwards, as do the SIGTERM handler,
    ``sys.argv`` and ``sys.path`` that ``bench/run.py`` and the examples
    touch.
    """
    ours = (str(SRC) + os.sep, str(BENCH) + os.sep, str(ROOT / "examples") + os.sep)

    def owned(module) -> bool:
        return str(getattr(module, "__file__", None) or "").startswith(ours)

    saved = {name: module for name, module in sys.modules.items() if owned(module)}
    for name in saved:
        del sys.modules[name]
    handler, argv, path = signal.getsignal(signal.SIGTERM), sys.argv, sys.path[:]
    try:
        yield
    finally:
        for name in [name for name, module in sys.modules.items() if owned(module)]:
            del sys.modules[name]
        sys.modules.update(saved)
        signal.signal(signal.SIGTERM, handler)
        sys.argv, sys.path[:] = argv, path


# ----------------------------------------------------------------------
# The entry points
# ----------------------------------------------------------------------
def _example(argv: List[str]) -> int:
    sys.argv = argv
    runpy.run_path(argv[0], run_name="__main__")
    return 0


def entry_points(scratch: Path) -> List[Tuple[Callable[[List[str]], int], List[str]]]:
    """(main, argv) of every entry point the census runs; each exits 0."""
    from repro.experiments.cli import main as experiments
    from repro.obs.cli import main as obs
    from repro.scenarios.cli import main as scenarios

    sys.path.insert(0, str(BENCH))  # bench/run.py imports its sibling modules
    bench = runpy.run_path(str(BENCH / "run.py"), run_name="bench_run")["main"]
    trace, spans = str(scratch / "t0.jsonl"), str(scratch / "t0-spans.jsonl")
    tiers = ("t0-discovery", "t0-latency", "t0-merging", "t0-smoke", "t1-churn",
             "t1-flashcrowd", "t2-burst", "t2-merge-stress", "t2-paper-mix")
    backends = (["--backend", "network"], ["--backend", "engine"],
                ["--backend", "engine", "--shards", "2"])
    return [
        *((_example, [str(ROOT / "examples" / f"{name}.py")]) for name in EXAMPLES),
        (experiments, ["all"]),
        (experiments, ["eq2", "--csv", str(scratch / "csv")]),
        *((scenarios, ["run", tier, "--seed", SEED, *backend])
          for tier in tiers for backend in backends[:2]),
        *((scenarios, ["run", "t1-churn", "--seed", SEED, "--policy", policy, *backend])
          for policy in POLICIES for backend in backends),
        (scenarios, ["run", "t0-smoke", "--seed", SEED, "--trace", trace,
                     "--obs-spans", spans, "--metrics-json", str(scratch / "m.json")]),
        (scenarios, ["replay", trace]),
        (scenarios, ["replay", trace, "--json", *backends[2]]),
        (scenarios, ["describe", "t0-smoke"]),
        (scenarios, ["describe", "t1-churn", "--json"]),
        (scenarios, ["list"]),
        (scenarios, ["run", "t0-smoke", "--seed", SEED, "--json"]),
        (obs, ["report", spans]),
        (scenarios, ["run", "t0-latency", "--seed", SEED,
                     "--latency-model", "lognormal:0.0,0.5"]),
        *((bench, ["--workload", workload, "--seed", "3", "--trace", traced,
                   "--quick", "--passes", "1"])
          for workload in ("churn-overlay", "burst-overlay", "cycle-engine",
                           "cycle-sharded", "checker-families")
          for traced in ("0", "1")),
    ]


def census(scratch: Path) -> Tuple[Dict[Tuple[str, int, str], Function], Set[str]]:
    """(every counted function, the keys of those no entry point reached)."""
    defs = function_defs()
    with fresh_imports(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), recording() as reached:
        for main, argv in entry_points(scratch):
            assert main(argv) == 0, argv
    unreached = {function.key for where, function in defs.items()
                 if where not in reached}
    return defs, unreached


# ----------------------------------------------------------------------
# The allowlist: unreached on purpose, each with its reason
# ----------------------------------------------------------------------
#: a scalar or exact oracle that tests pin a fast path against
TEST_REFERENCE = "test reference"
#: runs in the forked shard workers, which the census does not trace
SHARD_CHILD = "shard child"
#: reached only at full benchmark scale (the census runs ``--quick``)
FULL_SCALE = "full-scale only"
#: the ``repro.experiments --paper`` presets
PAPER = "--paper"


def _roadmap(item: int, why: str) -> str:
    return f"ROADMAP item {item}: {why}"


_VALUE_SEMANTICS = _roadmap(16, "value semantics (==, hash); no entry point compares two")
_DOMAIN_PATH = _roadmap(16, "a domain path no entry point takes (decoding, '*', timestamps)")
_ENGINE_SURFACE = _roadmap(16, "the engine-shaped facade surface tests drive the pool through")
_WORKLOAD_API = _roadmap(18, "workload and tier conveniences tests name; one registry decides")

ALLOWLIST: Dict[str, str] = {
    # the five scalar witness references and the entry-level conflict table
    **dict.fromkeys(
        [
            "repro/core/witness.py::point_is_witness",
            "repro/core/witness.py::find_point_witness",
            "repro/core/witness.py::find_polyhedron_witness_greedy",
            "repro/core/witness.py::witness_box_from_entries",
            "repro/core/witness.py::compute_point_witness_probability",
            "repro/core/conflict_table.py::ConflictTable._minimum_gap_measures_scalar",
            "repro/core/conflict_table.py::ConflictTable.entry_region",
            "repro/core/conflict_table.py::ConflictTable.entries_conflict",
            "repro/core/conflict_table.py::ConflictTable._low_high_conflict",
            "repro/core/conflict_table.py::ConflictTable._own_interval",
            "repro/core/conflict_table.py::ConflictTable.defined_entries",
            "repro/core/conflict_table.py::ConflictTable.is_defined",
            "repro/core/exact.py::exact_witness_point",
            # the Section-6 generators the instance tests and oracles draw from
            "repro/workloads/generators.py::random_subscription",
            "repro/workloads/generators.py::random_subscription_intersecting",
            "repro/workloads/generators.py::random_publication",
            "repro/workloads/generators.py::publication_inside",
            "repro/workloads/generators.py::random_interval",
            "repro/workloads/generators.py::slab_partition",
            "repro/workloads/generators.py::shrink_inside",
            "repro/workloads/generators.py::expand_to_cover",
            # the per-attribute draw Subscription.draw_batches is pinned to
            "repro/model/attributes.py::AttributeDomain.sample",
            # one publication at a time: what publication_points is pinned to
            "repro/scenarios/events.py::_GridAdapter.publication",
            "repro/scenarios/events.py::_PaperFigureWorkload.publication",
            "repro/workloads/comparison.py::ComparisonWorkload.publication",
        ],
        TEST_REFERENCE,
    ),
    **dict.fromkeys(
        [
            "repro/shard/worker.py::worker_main",
            "repro/shard/worker.py::_ShardWorker.__init__",
            "repro/shard/worker.py::_ShardWorker.apply_ops",
            "repro/shard/worker.py::_ShardWorker.match",
            "repro/shard/worker.py::_ShardWorker.stats",
            "repro/shard/worker.py::_SchemaInterner.__init__",
            "repro/shard/worker.py::_SchemaInterner.__call__",
            "repro/shard/partition.py::shard_seed",
            "repro/obs/probes.py::disable",
            "repro/core/arena.py::Matcher.check_schema",
        ],
        SHARD_CHILD,
    ),
    "repro/core/arena.py::_surviving": FULL_SCALE,
    **dict.fromkeys(
        [
            "repro/experiments/config.py::ChainConfig.paper",
            "repro/experiments/config.py::ComparisonConfig.paper",
            "repro/experiments/config.py::ExtremeNonCoverConfig.paper",
            "repro/experiments/config.py::NonCoverConfig.paper",
            "repro/experiments/config.py::RedundantCoveringConfig.paper",
        ],
        PAPER,
    ),
    "repro/core/subsumption.py::SubsumptionChecker.theoretical_d": _roadmap(
        7, "the paper's d beside the capped iteration count"
    ),
    **dict.fromkeys(
        [
            "repro/shard/partition.py::RangePartitioner.__init__",
            "repro/shard/partition.py::RangePartitioner.shard_of",
        ],
        _roadmap(9, "the range partitioner stays until sharding is decided"),
    ),
    **dict.fromkeys(
        [
            "repro/workloads/scenarios.py::validate_instance",
            "repro/workloads/scenarios.py::_ticks_inside",
            "repro/workloads/scenarios.py::ValidationResult.ok",
            "repro/workloads/scenarios.py::ValidationResult.failed",
        ],
        _roadmap(18, "validate_instance becomes the family specs' validation"),
    ),
    **dict.fromkeys(
        [
            "repro/experiments/config.py::ChainConfig.smoke",
            "repro/experiments/config.py::ComparisonConfig.smoke",
            "repro/experiments/config.py::ExtremeNonCoverConfig.smoke",
            "repro/experiments/config.py::NonCoverConfig.smoke",
            "repro/experiments/config.py::RedundantCoveringConfig.smoke",
            "repro/scenarios/registry.py::get_scenario",
            "repro/workloads/scenarios.py::ScenarioInstance.k",
            "repro/workloads/bike_rental.py::BikeRentalWorkload.publications",
            "repro/workloads/comparison.py::ComparisonWorkload.publications",
            "repro/workloads/comparison.py::ComparisonWorkload.subscriptions",
            "repro/workloads/grid.py::GridWorkload.job_publications",
        ],
        _WORKLOAD_API,
    ),
    "repro/workloads/scenarios.py::_avoid_full_cover": _roadmap(
        16, "generator branch taken only when a drawn candidate would cover the reference"
    ),
    **dict.fromkeys(
        [
            "repro/model/subscriptions.py::Subscription.__eq__",
            "repro/model/subscriptions.py::Subscription.__hash__",
            "repro/model/publications.py::Publication.__eq__",
            "repro/model/publications.py::Publication.__hash__",
            "repro/model/schema.py::Schema.__hash__",
            "repro/model/attributes.py::CategoricalDomain.__eq__",
            "repro/model/attributes.py::CategoricalDomain.__hash__",
            "repro/model/attributes.py::TimestampDomain.__eq__",
            "repro/model/attributes.py::TimestampDomain.__hash__",
        ],
        _VALUE_SEMANTICS,
    ),
    **dict.fromkeys(
        [
            "repro/model/attributes.py::Attribute.full_interval",
            "repro/model/attributes.py::AttributeDomain.full_interval",
            "repro/model/attributes.py::AttributeDomain.describe",
            "repro/model/attributes.py::CategoricalDomain.describe",
            "repro/model/attributes.py::TimestampDomain.describe",
            "repro/model/attributes.py::CategoricalDomain.decode",
            "repro/model/attributes.py::CategoricalDomain.values",
            "repro/model/attributes.py::TimestampDomain.encode",
            "repro/model/intervals.py::Interval.empty",
            "repro/model/subscriptions.py::Subscription.contains_point",
            "repro/model/subscriptions.py::Subscription.intervals",
            "repro/model/subscriptions.py::Subscription.same_box",
            "repro/model/publications.py::Publication.m",
        ],
        _DOMAIN_PATH,
    ),
    **dict.fromkeys(
        [
            "repro/shard/engine.py::ShardedMatchingEngine.match",
            "repro/shard/engine.py::ShardedMatchingEngine.coordinator",
            "repro/shard/engine.py::ShardedMatchingEngine.shards",
            "repro/shard/engine.py::ShardedMatchingEngine.__enter__",
            "repro/shard/engine.py::ShardedMatchingEngine.__exit__",
            "repro/shard/coordinator.py::ShardCoordinator.__enter__",
            "repro/shard/coordinator.py::ShardCoordinator.__exit__",
        ],
        _ENGINE_SURFACE,
    ),
    **dict.fromkeys(
        [
            "repro/broker/broker.py::Broker.checker",
            "repro/broker/broker.py::Broker.checker.setter",
        ],
        _roadmap(16, "checker injection: the failure-injection tests swap a broker's checker"),
    ),
    **dict.fromkeys(
        [
            "repro/utils/rng.py::_GeneratorDraws.__init__",
            "repro/utils/rng.py::_GeneratorDraws.integer",
            "repro/utils/rng.py::_WordDraws._numpy_integer",
        ],
        _roadmap(16, "scalar_draws off PCG64, or a span outside (1, 2**32); no entry point"),
    ),
}


@pytest.mark.slow
def test_every_src_function_is_reached_or_allowlisted(tmp_path):
    defs, unreached = census(tmp_path)
    keys = {function.key for function in defs.values()}
    missing = sorted(unreached - set(ALLOWLIST))
    assert not missing, (
        "reached by no entry point and not on the census allowlist (give each "
        "a caller, delete it, or allowlist it with a reason):\n  "
        + "\n  ".join(missing)
    )
    stale = sorted(key for key in ALLOWLIST if key not in keys or key not in unreached)
    assert not stale, "allowlisted but reached, or gone from src/:\n  " + "\n  ".join(stale)
    kinds = (TEST_REFERENCE, SHARD_CHILD, FULL_SCALE, PAPER)
    assert all(
        reason in kinds or reason.startswith("ROADMAP item ")
        for reason in ALLOWLIST.values()
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        defs, unreached = census(Path(directory))
    sizes = {function.key: function.body_lines for function in defs.values()}
    print(f"{len(unreached)} of {len(defs)} functions unreached, holding "
          f"{sum(sizes[k] for k in unreached)} of {sum(sizes.values())} body lines")
    for key in sorted(unreached):
        mark = "" if key in ALLOWLIST else "  (not allowlisted)"
        print(f"{sizes[key]:5d}  {key}{mark}")
