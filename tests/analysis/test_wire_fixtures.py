"""The seeded-defect fixture under fixtures/wire/ is caught by its rule.

Same contract as the flow corpus: the fixture holds exactly the defect
OBI306 exists for, and trips *only* that rule.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures" / "wire"

CASES = [
    ("obi306_schema_input_drift.py", "OBI306"),
]

ALL_WIRE = {rule for _fixture, rule in CASES}


@pytest.mark.parametrize(("fixture", "rule"), CASES)
def test_fixture_detected_by_its_rule(fixture, rule):
    report = analyze_paths([FIXTURES / fixture], select={rule})
    rules_hit = {finding.rule for finding in report.all_findings()}
    assert rule in rules_hit, f"{fixture} not detected by {rule}"


@pytest.mark.parametrize(("fixture", "rule"), CASES)
def test_fixture_trips_exactly_its_rule(fixture, rule):
    report = analyze_paths([FIXTURES / fixture])
    assert {finding.rule for finding in report.all_findings()} == {rule}


def test_every_wire_rule_has_a_fixture():
    from repro.analysis.rules import build_rules

    wire_ids = {rule.id for rule in build_rules() if rule.id.startswith("OBI3")}
    assert wire_ids == ALL_WIRE


def test_self_host_is_clean_under_strict():
    """The shipped tree satisfies its own wire contract."""
    src = Path(__file__).parents[2] / "src" / "repro"
    report = analyze_paths([src], select=ALL_WIRE, strict=True)
    assert not report.failed(strict=True), [
        finding.format() for finding in report.all_findings()
    ]


def test_wire_findings_stay_suppressible(tmp_path):
    source = (FIXTURES / "obi306_schema_input_drift.py").read_text(encoding="utf-8")
    patched = source.replace(
        "self.bonus = 100  # schema-visible, but only on this branch",
        "self.bonus = 100  # obilint: disable=OBI306 -- test fixture",
    )
    assert patched != source
    path = tmp_path / "suppressed_schema.py"
    path.write_text(patched, encoding="utf-8")
    report = analyze_paths([path], select={"OBI306"})
    assert not report.findings
    assert any(finding.rule == "OBI306" for finding in report.suppressed)
