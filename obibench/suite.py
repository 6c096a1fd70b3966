"""``obibench run``: every workload, each run in a fresh interpreter.

Writes one result file in one schema (:data:`SCHEMA`).  A file holds,
per workload, one record per repeat; repeat ``r`` runs seed ``seed + r``,
which is how the driver varies its runs.  The headline of a metric is
its median over the repeats, its steadiness the interquartile distance
as a share of that median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from obibench.stats import quartile_spread

SCHEMA = "obibench/1"
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: ``--smoke``: long enough for a few units of every workload.
SMOKE_SECONDS = 0.3


def definition() -> dict:
    """``BENCHMARK.json``: workloads, run length, metrics and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def driver_line(result: dict) -> dict:
    """The object the driver reads off the last line of a run."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    }


def commit() -> str:
    """The checkout's commit, when it is a git checkout at all."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_one(workload: str, seed: int, seconds: float, *, trace: bool, smoke: bool,
            spans_out: str | None = None) -> dict:
    """One workload in a fresh interpreter; returns its full record."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=OUT_DIR, suffix=".json") as detail:
        command = [
            sys.executable, "-m", "obibench",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
            "--detail-out", detail.name,
        ]
        if smoke:
            command.append("--smoke")
        if spans_out:
            command += ["--spans-out", spans_out]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            raise RuntimeError(
                f"{workload} (seed {seed}) exited with {done.returncode}:\n{done.stderr}"
            )
        record = json.loads(Path(detail.name).read_text(encoding="utf-8"))
    last_line = json.loads(done.stdout.strip().splitlines()[-1])
    if last_line != driver_line(record):
        raise RuntimeError(f"{workload}: the printed result and the record disagree")
    return record


def run_suite(seed: int, repeats: int, seconds: float, *, trace: bool, smoke: bool,
              keep_spans: bool = False) -> dict:
    result: dict[str, object] = {
        "schema": SCHEMA,
        "commit": commit(),
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "workloads": {},
    }
    for entry in definition()["workloads"]:
        name = entry["name"]
        runs = []
        for repeat in range(repeats):
            spans_out = None
            if trace and keep_spans:
                spans_out = str(OUT_DIR / f"spans-{name}-seed{seed + repeat}.jsonl")
            record = run_one(name, seed + repeat, seconds, trace=trace, smoke=smoke,
                             spans_out=spans_out)
            result.setdefault("env", record["env"])
            runs.append(record)
            print(f"# {name} seed {seed + repeat}: {record['ops']} x {record['op']} in "
                  f"{record['wall_s']:.1f} s, {record['failed']} of {record['attempted']} failed",
                  flush=True)
        result["workloads"][name] = {
            "clients": runs[0]["clients"],
            "op": runs[0]["op"],
            "runs": [
                {key: run[key] for key in
                 ("seed", "correct", "attempted", "failed", "failures", "units", "ops",
                  "wall_s", "metrics")}
                for run in runs
            ],
        }
    return result


# ----------------------------------------------------------------------
# reading a result file
# ----------------------------------------------------------------------
def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    if result.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not an {SCHEMA} result file")
    for name, entry in result["workloads"].items():
        if not entry["runs"]:
            raise ValueError(f"{path}: workload {name!r} has no runs")
    return result


def values(result: dict, workload: str, metric: str) -> list[float]:
    """One metric's value in every repeat of one workload."""
    return [run["metrics"][metric]["value"] for run in result["workloads"][workload]["runs"]]


def ops_failed(result: dict) -> int:
    return sum(run["failed"] for entry in result["workloads"].values() for run in entry["runs"])


def print_table(result: dict) -> None:
    for name, entry in result["workloads"].items():
        first = entry["runs"][0]
        attempted = sum(run["attempted"] for run in entry["runs"])
        failed = sum(run["failed"] for run in entry["runs"])
        print(f"\n{name}  ({entry['clients']} client(s), closed loop, op = {entry['op']}; "
              f"ops_attempted {attempted}, ops_failed {failed})")
        print(f"  {'metric':38} {'median':>14} {'unit':6} {'n':>8} {'spread':>8}")
        for metric, shape in first["metrics"].items():
            series = values(result, name, metric)
            spread = f"{quartile_spread(series):8.2%}" if len(series) > 1 else f"{'-':>8}"
            note = ""
            if shape.get("supported") is False:
                note = f"  (p{shape['percentile']:g} has fewer than 10 samples beyond it)"
            elif "percentile" in shape:
                note = f"  (p{shape['percentile']:g})"
            print(f"  {metric:38} {statistics.median(series):14.4f} {shape['unit']:6} "
                  f"{shape.get('n', ''):>8} {spread}{note}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m obibench run", description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload; repeat r uses seed + r")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", action="store_true",
                        help="the traced run: per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--spans", action="store_true",
                        help="with --trace: also write every span under obibench/out/")
    parser.add_argument("--smoke", action="store_true",
                        help=f"small graphs, one set-up, {SMOKE_SECONDS} s per run")
    parser.add_argument("--out", help="result file (default: under obibench/out/)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else float(definition()["run_seconds"])

    result = run_suite(args.seed, args.repeats, seconds, trace=args.trace, smoke=args.smoke,
                       keep_spans=args.spans)
    print_table(result)
    kind = "trace" if args.trace else "e2e"
    out = Path(args.out) if args.out else OUT_DIR / f"obibench-{kind}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nresult: {out}")
    return 1 if ops_failed(result) else 0
