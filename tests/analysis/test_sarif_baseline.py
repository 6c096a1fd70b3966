"""SARIF output."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import analyze_paths
from repro.analysis.cli import main
from repro.analysis.report import render_sarif
from repro.analysis.rules import build_rules

DIRTY = """
    import time

    def stamp():
        return time.time()

    def stamp_again():
        return time.time()
"""

@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(textwrap.dedent(DIRTY), encoding="utf-8")
    return path


class TestSarif:
    def test_schema_shape(self, dirty_file):
        report = analyze_paths([dirty_file])
        payload = json.loads(render_sarif(report, build_rules()))
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-2.1.0.json")
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "obilint"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"OBI102", "OBI108", "OBI203", "OBI306"} <= rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in {"warning", "error"}
        assert len(run["results"]) == 2
        result = run["results"][0]
        assert result["ruleId"] == "OBI108"
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("dirty.py")
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_cli_format_sarif(self, dirty_file, capsys):
        exit_code = main([str(dirty_file), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert exit_code == 0  # OBI108 is a warning; not strict
