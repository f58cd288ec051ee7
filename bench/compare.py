#!/usr/bin/env python3
"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate; both are suite results of
``bench/run.py --out`` taken on the same seed, scale and pass count, so
input ``i`` is the same work in both and the comparison is paired.
For every end-to-end metric x workload the recorded bound is applied:

``ok``          B is no worse than A by more than the bound;
``regression``  B is worse than A by more than the bound;
``unresolved``  the inter-quartile spread of the per-input differences is
                wider than the bound, unless B read better (or worse) than
                A on every single input — a difference that noisy decides
                nothing either way.

Exact-count metrics (suppressed and failed fractions, message, decision
and iteration counts) are listed when they differ at all: a change there
is a change of behaviour and has to be stated.  Exits 1 on a regression,
2 when the two results are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import metrics as metric_tables  # noqa: E402


def worsening(metric: metric_tables.EndToEnd, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base`` (negative: better)."""
    delta = base - new if metric.better == "higher" else new - base
    if metric.absolute:
        return delta
    return delta / base if base else 0.0


def judge(
    metric: metric_tables.EndToEnd, base: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[str, float, Optional[float]]:
    """``(verdict, worsening of the reported value, spread over the inputs)``."""
    worse = worsening(metric, base["value"], new["value"])
    spread = None
    base_inputs = base.get("samples", [])
    new_inputs = new.get("samples", [])
    if len(base_inputs) == len(new_inputs) >= 2:
        per_input = [
            worsening(metric, a, b) for a, b in zip(base_inputs, new_inputs)
        ]
        quartiles = statistics.quantiles(per_input, n=4)
        spread = quartiles[2] - quartiles[0]
        one_sided = all(w > 0 for w in per_input) or all(w < 0 for w in per_input)
        if spread > metric.bound and not one_sided:
            return "unresolved", worse, spread
    return ("regression" if worse > metric.bound else "ok"), worse, spread


def comparable(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Why the two results cannot be compared input by input (if at all)."""
    reasons = []
    if base.get("schema_version") != new.get("schema_version"):
        reasons.append("schema versions differ")
    for key in ("seed", "scale", "inputs"):
        if base["provenance"][key] != new["provenance"][key]:
            reasons.append(
                f"{key} differs: {base['provenance'][key]} vs {new['provenance'][key]}"
            )
    if set(base["workloads"]) != set(new["workloads"]):
        reasons.append("workload sets differ")
        return reasons
    for name, workload in base["workloads"].items():
        if workload["passes"] != new["workloads"][name]["passes"]:
            reasons.append(f"passes of {name} differ")
    return reasons


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Every verdict, and every exact-count metric that moved."""
    rows = []
    changed = []
    for name, base_workload in base["workloads"].items():
        new_workload = new["workloads"][name]
        for metric in metric_tables.END_TO_END:
            if name not in metric.applies:
                continue
            verdict, worse, spread = judge(
                metric,
                base_workload["end_to_end"][metric.name],
                new_workload["end_to_end"][metric.name],
            )
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "base": base_workload["end_to_end"][metric.name]["value"],
                    "new": new_workload["end_to_end"][metric.name]["value"],
                    "worse_by": worse,
                    "bound": metric.bound,
                    "absolute": metric.absolute,
                    "spread": spread,
                    "verdict": verdict,
                }
            )
        for exact in metric_tables.EXACT:
            section = (
                "end_to_end" if exact in base_workload["end_to_end"] else "per_layer"
            )
            before = base_workload[section].get(exact, {}).get("value")
            after = new_workload[section].get(exact, {}).get("value")
            if before != after:
                changed.append(
                    {"workload": name, "metric": exact, "base": before, "new": after}
                )
    return {"rows": rows, "changed_counts": changed}


def render(outcome: Dict[str, Any]) -> str:
    lines = [
        f"{'workload':18s} {'metric':22s} {'base':>12s} {'new':>12s} "
        f"{'worse by':>9s} {'bound':>7s} {'spread':>7s}  verdict"
    ]
    for row in outcome["rows"]:
        spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        kind = "abs" if row["absolute"] else "rel"
        lines.append(
            f"{row['workload']:18s} {row['metric']:22s} {row['base']:12.5g} "
            f"{row['new']:12.5g} {row['worse_by']:+9.4f} "
            f"{row['bound']:5g}{kind:>3s} {spread:>7s}  {row['verdict']}"
        )
    if outcome["changed_counts"]:
        lines.append("exact-count metrics that differ (a behaviour change):")
        for row in outcome["changed_counts"]:
            lines.append(
                f"  {row['workload']:18s} {row['metric']:36s} "
                f"{row['base']} -> {row['new']}"
            )
    else:
        lines.append("every exact-count metric is identical")
    verdicts = [row["verdict"] for row in outcome["rows"]]
    lines.append(
        f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
        f"{verdicts.count('regression')} regression(s)"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if len(arguments) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in arguments)
    reasons = comparable(base, new)
    if reasons:
        print("bench: results are not comparable: " + "; ".join(reasons), file=sys.stderr)
        return 2
    outcome = compare(base, new)
    print(render(outcome))
    return 1 if any(row["verdict"] == "regression" for row in outcome["rows"]) else 0


if __name__ == "__main__":
    sys.exit(main())
