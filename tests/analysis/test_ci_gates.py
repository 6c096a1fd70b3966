"""Tier-1 runs the lint gates CI runs.

Each command is spelled as in ``.github/workflows/ci.yml`` (the test
checks that it still is) and must exit 0 on a clean tree, so a finding
nobody accounted for fails the suite, not only CI.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

GATES = {
    "obilint-src": "python -m repro.analysis src/repro examples --strict",
    "obilint-tests": "python -m repro.analysis benchmarks tests --strict",
    "obiwire-check": (
        "python -m repro.analysis.wire check src/repro --baseline .github/wire-baseline.json"
    ),
}


@pytest.mark.parametrize("command", GATES.values(), ids=GATES.keys())
def test_ci_lint_gate_exits_zero(command):
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    assert command in " ".join(workflow.split()), "CI no longer runs this gate as spelled"
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, *command.split()[1:]],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
