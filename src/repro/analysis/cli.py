"""The obilint command line.

::

    python -m repro.analysis src/repro examples --strict
    python -m repro.analysis --list-rules
    python -m repro.analysis src/repro --format json

Exit codes: 0 clean, 1 findings at failing severity, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.analysis.engine import Analyzer
from repro.analysis.report import (
    render_json,
    render_rule_catalog,
    render_sarif,
    render_text,
)
from repro.analysis.rules import build_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="obilint: replication-safety static analysis for OBIWAN code",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="warnings fail the run and suppressions must carry a justification",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule ids/names to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--verbose", action="store_true", help="also show suppressed findings (text format)"
    )
    return parser


def _split(values: list[str]) -> set[str]:
    out: set[str] = set()
    for value in values:
        out.update(token.strip() for token in value.split(",") if token.strip())
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Downstream closed the pipe (``obilint ... | head``); the report
        # was cut short on purpose, so exit quietly instead of tracebacking.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(argv: Sequence[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rules = build_rules()

    if args.list_rules:
        print(render_rule_catalog(rules))
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return 2

    known = {rule.id for rule in rules} | {rule.name for rule in rules}
    unknown = (_split(args.select) | _split(args.ignore)) - known
    if unknown:
        print(
            f"error: unknown rule(s): {', '.join(sorted(unknown))}"
            " (see --list-rules)",
            file=sys.stderr,
        )
        return 2

    analyzer = Analyzer(
        rules,
        select=_split(args.select) or None,
        ignore=_split(args.ignore) or None,
        strict=args.strict,
    )
    try:
        report = analyzer.run(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(report, strict=args.strict))
    elif args.format == "sarif":
        print(render_sarif(report, rules, strict=args.strict))
    else:
        print(render_text(report, strict=args.strict, verbose=args.verbose))
    return 1 if report.failed(strict=args.strict) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
