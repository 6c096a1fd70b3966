"""The obiwire command line.

::

    obiwire spec src/repro --out wire-spec.json
    obiwire check src/repro --baseline .github/wire-baseline.json
    obiwire check src/repro --baseline .github/wire-baseline.json --update
    obiwire diff old-spec.json new-spec.json

Exit codes: 0 clean, 1 drift/breaking changes, 2 usage error — the same
convention as obilint, so CI treats both uniformly.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.engine import load_modules
from repro.analysis.wire.diff import diff_specs, has_breaking, render_diff
from repro.analysis.wire.extract import extract_modules
from repro.analysis.wire.spec import WireSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obiwire",
        description="obiwire: wire-protocol contract extraction and compatibility checks",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    spec = commands.add_parser("spec", help="extract the wire spec from source")
    spec.add_argument("paths", nargs="+", help="files or directories to extract from")
    spec.add_argument("--out", metavar="FILE", help="write the spec here instead of stdout")

    diff = commands.add_parser("diff", help="compare two spec files for breaking changes")
    diff.add_argument("old", help="baseline spec JSON")
    diff.add_argument("new", help="candidate spec JSON")
    diff.add_argument("--format", choices=("text", "json"), default="text")

    check = commands.add_parser(
        "check", help="extract from source and compare against a committed baseline"
    )
    check.add_argument("paths", nargs="+", help="files or directories to extract from")
    check.add_argument(
        "--baseline",
        metavar="FILE",
        default=".github/wire-baseline.json",
        help="committed spec to compare against (default: .github/wire-baseline.json)",
    )
    check.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the current source and exit 0",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "spec":
            return _cmd_spec(args)
        if args.command == "diff":
            return _cmd_diff(args)
        return _cmd_check(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _extract(args) -> WireSpec | None:
    modules, failures = load_modules(args.paths)
    for failure in failures:
        print(f"error: {failure.format()}", file=sys.stderr)
    if failures:
        return None
    return extract_modules(modules)


def _cmd_spec(args) -> int:
    spec = _extract(args)
    if spec is None:
        return 2
    rendered = spec.to_json()
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(
            f"obiwire: spec {spec.fingerprint()} "
            f"({len(spec.tags)} tags, {len(spec.classes)} classes, "
            f"{len(spec.verbs)} verbs) written to {args.out}"
        )
    else:
        print(rendered, end="")
    return 0


def _cmd_diff(args) -> int:
    try:
        old = WireSpec.load(args.old)
        new = WireSpec.load(args.new)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    changes = diff_specs(old, new)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "old_fingerprint": old.fingerprint(),
                    "new_fingerprint": new.fingerprint(),
                    "breaking": has_breaking(changes),
                    "changes": [c.to_json() for c in changes],
                },
                indent=2,
            )
        )
    else:
        print(render_diff(changes))
    return 1 if has_breaking(changes) else 0


def _cmd_check(args) -> int:
    spec = _extract(args)
    if spec is None:
        return 2
    baseline_path = Path(args.baseline)
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(spec.to_json(), encoding="utf-8")
        print(f"obiwire: baseline {spec.fingerprint()} written to {baseline_path}")
        return 0
    if not baseline_path.is_file():
        print(
            f"error: baseline not found: {baseline_path} "
            "(generate it with 'obiwire check --update')",
            file=sys.stderr,
        )
        return 2
    try:
        committed = WireSpec.load(baseline_path)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if committed.fingerprint() == spec.fingerprint():
        print(f"obiwire: wire spec matches baseline ({spec.fingerprint()})")
        return 0
    # Any drift — breaking or compatible — fails the check: the baseline
    # is part of the change being reviewed, so a PR that evolves the wire
    # must commit the refreshed spec alongside the code.
    changes = diff_specs(committed, spec)
    print(
        f"obiwire: wire spec drifted from baseline "
        f"({committed.fingerprint()} -> {spec.fingerprint()})"
    )
    print(render_diff(changes))
    print("run 'obiwire check --update' and commit the refreshed baseline")
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
