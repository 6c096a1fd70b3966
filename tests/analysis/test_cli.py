"""CLI behavior: exit codes, formats, subprocess entry point, self-hosting."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

BAD = """
from repro import obiwan

@obiwan.compile
class Bad:
    def get(self):
        pass
"""

CLEAN = """
from repro import obiwan

@obiwan.compile
class Good:
    def business(self):
        pass
"""


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _subprocess_env():
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "good.py", CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "OBI102" in out
        assert "FAIL" in out

    def test_warning_only_passes_unless_strict(self, tmp_path, capsys):
        _write(
            tmp_path,
            "warn.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert main([str(tmp_path)]) == 0
        assert main([str(tmp_path), "--strict"]) == 1

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2


class TestFormats:
    def test_json_schema(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD)
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["failed"] is True
        assert payload["files_analyzed"] == 1
        assert payload["summary"]["errors"] == 1
        [finding] = payload["findings"]
        assert finding["rule"] == "OBI102"
        assert finding["name"] == "interface-shadowing"
        assert finding["severity"] == "error"
        assert finding["line"] > 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("OBI102", "OBI203", "OBI306"):
            assert rule_id in out

    def test_select_and_ignore(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", BAD)
        assert main([str(tmp_path), "--select", "OBI108"]) == 0
        assert main([str(tmp_path), "--ignore", "OBI102"]) == 0

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        # A typo'd --select must not silently select nothing and pass CI.
        _write(tmp_path, "bad.py", BAD)
        assert main([str(tmp_path), "--select", "OBI999"]) == 2
        assert main([str(tmp_path), "--ignore", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestSelfHost:
    def test_src_and_examples_clean_under_strict(self, capsys):
        # The acceptance bar: the analyzer passes over its own codebase.
        assert (
            main([str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "examples"), "--strict"])
            == 0
        )

    def test_subprocess_entry_point(self, tmp_path):
        _write(tmp_path, "bad.py", BAD)
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tmp_path)],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert "OBI102" in result.stdout

    def test_subprocess_strict_self_host(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                str(REPO_ROOT / "src" / "repro"),
                str(REPO_ROOT / "examples"),
                "--strict",
            ],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout


@pytest.mark.parametrize(
    ("rule_id", "source"),
    [
        ("OBI102", BAD),
        (
            "OBI107",
            """
            def risky():
                try:
                    return 1
                except:
                    return None
            """,
        ),
        (
            "OBI108",
            """
            import time

            def stamp():
                return time.time()
            """,
        ),
    ],
)
def test_every_rule_fails_the_cli_in_strict_mode(tmp_path, capsys, rule_id, source):
    """Acceptance: a fixture violating each rule makes the CLI exit non-zero."""
    _write(tmp_path, "fixture.py", source)
    assert main([str(tmp_path), "--strict"]) == 1
    assert rule_id in capsys.readouterr().out
