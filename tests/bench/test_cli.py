"""Tests for the benchmark CLI (python -m repro.bench)."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.__main__ import COMMANDS, main

SRC_DIR = pathlib.Path(__file__).resolve().parents[2] / "src"


def test_all_commands_registered():
    expected = {
        "anchors",
        "fig4",
        "fig5",
        "fig6",
        "ablate-proxy",
        "ablate-prefetch",
        "ablate-consistency",
        "ablate-transport",
        "future-networks",
        "future-cpu",
        "strategy-study",
        "memory-study",
        "tracing-overhead",
    }
    assert set(COMMANDS) == expected


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["no-such-benchmark"])


def test_anchors_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["anchors"]) == 0
    out = capsys.readouterr().out
    assert "2.00 us" in out
    assert "2.8" in out
    assert (tmp_path / "results" / "anchors.json").exists()


def test_future_cpu_in_process(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["future-cpu"]) == 0
    out = capsys.readouterr().out
    assert "crossover" in out
    assert (tmp_path / "results" / "future_cpu.json").exists()


def test_cli_subprocess_smoke(tmp_path):
    # The subprocess does not inherit pytest's sys.path entries; put the
    # source tree on PYTHONPATH explicitly so `repro` resolves.
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.bench", "anchors"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "anchor" in result.stdout
