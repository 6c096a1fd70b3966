"""Command line of obibench.

``python3 -m obibench --workload W --seed N --seconds S --trace 0|1``
    one workload in this interpreter; the last line of standard output is
    the result object the driver reads (``BENCHMARK.json`` ``command``).

``python3 -m obibench run [--seed N] [--repeats R] [--trace] [--smoke]``
    all four workloads, each run in a fresh interpreter, every metric
    printed by name and unit, one result file written under
    ``obibench/out/``.

``python3 -m obibench compare A.json B.json``
    before/after table with a verdict per (workload, metric).
"""

from __future__ import annotations

import argparse
import json
import sys

from obibench import compare, suite


def _single(argv: list[str]) -> int:
    from obibench import runner
    from obibench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m obibench", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small graphs, one set-up")
    parser.add_argument("--detail-out", help="write the full result record here")
    parser.add_argument("--spans-out", help="traced run: write every span here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner.limit_cpus()
    result = runner.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        spans_out=args.spans_out,
    )
    if args.detail_out:
        with open(args.detail_out, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1)
    for why in result["failures"]:
        print(f"FAILED: {why}", file=sys.stderr)
    print(json.dumps(suite.driver_line(result)))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "run":
        return suite.main(argv[1:])
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    return _single(argv)


if __name__ == "__main__":
    sys.exit(main())
