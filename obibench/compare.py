"""``obibench compare A.json B.json``: the before/after table.

One row per (workload, end-to-end metric): both medians, the change, the
bound ``BENCHMARK.json`` fixed for the metric and a verdict.

``regressed``   B's median is worse than A's by more than the bound.
``unresolved``  the spread across repeats, on either side, is wider than
                the bound, so the medians cannot tell — unless every run
                of B reads better than every run of A.
``ok``          otherwise.

Metrics without a bound (the per-layer ledger of two traced files) are
listed with their change and no verdict.  Exits 1 on any ``regressed``.
"""

from __future__ import annotations

import argparse
import statistics

from obibench import suite
from obibench.stats import quartile_spread


def worse_by(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is, as a share of ``before`` (negative = better)."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float | None]:
    """``(verdict, spread)`` for one metric's repeats on both sides."""
    spread = None
    if len(a) > 1 and len(b) > 1:
        spread = max(quartile_spread(a), quartile_spread(b))
    if spread is not None and spread > bound:
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return ("ok" if all_better else "unresolved"), spread
    if worse_by(statistics.median(a), statistics.median(b), better) > bound:
        return "regressed", spread
    return "ok", spread


def rows(a: dict, b: dict, metrics: list[dict]) -> list[dict]:
    known = {entry["name"]: entry for entry in metrics}
    table = []
    for workload, entry in a["workloads"].items():
        if workload not in b["workloads"]:
            continue
        for metric, shape in entry["runs"][0]["metrics"].items():
            if metric not in b["workloads"][workload]["runs"][0]["metrics"]:
                continue
            before = suite.values(a, workload, metric)
            after = suite.values(b, workload, metric)
            row = {
                "workload": workload,
                "metric": metric,
                "unit": shape["unit"],
                "a": statistics.median(before),
                "b": statistics.median(after),
                "bound": None,
                "verdict": "-",
                "spread": None,
            }
            spec = known.get(metric)
            if spec is not None and "bound" in spec:
                row["bound"] = spec["bound"]
                row["verdict"], row["spread"] = verdict(
                    before, after, spec["better"], spec["bound"]
                )
            direction = spec["better"] if spec is not None else "lower"
            row["worse_by"] = worse_by(row["a"], row["b"], direction)
            table.append(row)
    return table


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m obibench compare", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="result file of the parent (before)")
    parser.add_argument("b", help="result file of the change (after)")
    args = parser.parse_args(argv)
    a, b = suite.load(args.a), suite.load(args.b)
    spec = suite.definition()
    table = rows(a, b, spec["end_to_end"] + spec["per_layer"])

    print(f"A: {args.a}  (commit {a['commit'][:12]}, seed {a['seed']}, {a['repeats']} repeat(s))")
    print(f"B: {args.b}  (commit {b['commit'][:12]}, seed {b['seed']}, {b['repeats']} repeat(s))")
    print(f"{'workload':15} {'metric':36} {'A':>13} {'B':>13} {'unit':6} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for row in table:
        bound = f"{row['bound']:6.0%}" if row["bound"] is not None else f"{'-':>6}"
        spread = f"{row['spread']:7.1%}" if row["spread"] is not None else f"{'-':>7}"
        print(f"{row['workload']:15} {row['metric']:36} {row['a']:13.4f} {row['b']:13.4f} "
              f"{row['unit']:6} {row['worse_by']:+9.1%} {bound} {spread}  {row['verdict']}")
    regressed = [row for row in table if row["verdict"] == "regressed"]
    unresolved = [row for row in table if row["verdict"] == "unresolved"]
    print(f"\n{len(regressed)} regressed, {len(unresolved)} unresolved, "
          f"{len(table) - len(regressed) - len(unresolved)} ok or unbounded")
    return 1 if regressed else 0
