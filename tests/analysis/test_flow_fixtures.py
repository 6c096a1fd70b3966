"""Every seeded-defect fixture under fixtures/flow/ is caught by its rule.

The fixture files are the flow layer's regression corpus: each one holds
exactly the defect its OBI2xx rule exists for, so a refactor that stops
detecting one fails here first.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures" / "flow"

CASES = [
    ("obi202_blocking_under_lock.py", "OBI202"),
    ("obi203_unguarded_state.py", "OBI203"),
    ("obi204_put_without_source.py", "OBI204"),
    ("obi205_demand_outside_fault.py", "OBI205"),
    ("obi209_snapshot_read_mutation.py", "OBI209"),
    ("obi210_feed_apply_epoch.py", "OBI210"),
]

#: Fixtures built to trip exactly one flow rule, with every flow rule running.
EXACT_CASES = [case for case in CASES if case[1] == "OBI209"]


def _flow_rule_ids():
    from repro.analysis.rules import build_rules

    return {rule.id for rule in build_rules() if rule.id.startswith("OBI2")}


@pytest.mark.parametrize(("fixture", "rule"), CASES)
def test_fixture_detected_by_its_rule(fixture, rule):
    report = analyze_paths([FIXTURES / fixture], select={rule})
    rules_hit = {finding.rule for finding in report.all_findings()}
    assert rule in rules_hit, f"{fixture} not detected by {rule}"


def test_every_flow_rule_has_a_fixture():
    assert _flow_rule_ids() == {rule for _fixture, rule in CASES}


@pytest.mark.parametrize(("fixture", "rule"), EXACT_CASES)
def test_stripe_fixture_triggers_exactly_its_rule(fixture, rule):
    """With every flow rule running, the fixture trips only its own."""
    report = analyze_paths([FIXTURES / fixture], select=_flow_rule_ids())
    assert {finding.rule for finding in report.all_findings()} == {rule}


def test_site_tables_write_outside_the_lock_fires_obi203_once():
    """A Site-shaped store under one ``StripeLock``: the unlocked write is
    the only finding of any rule, and its locked twin is clean."""
    report = analyze_paths([FIXTURES / "obi203_site_tables.py"])
    (finding,) = report.all_findings()
    assert finding.rule == "OBI203"
    assert "Site._masters" in finding.message
    assert "adopt_master" in finding.message
    assert analyze_paths([FIXTURES / "clean_site_tables.py"]).all_findings() == []


def test_obi203_fixture_flags_both_evict_and_lookup():
    report = analyze_paths([FIXTURES / "obi203_unguarded_state.py"], select={"OBI203"})
    messages = [finding.message for finding in report.all_findings()]
    assert any("evict" in message for message in messages)
    assert any("lookup" in message for message in messages)


def test_fixtures_stay_suppressible():
    """A justified suppression silences a flow finding like any other."""
    source = (FIXTURES / "obi205_demand_outside_fault.py").read_text(encoding="utf-8")
    patched = source.replace(
        "(proxy._obi_mode,))",
        "(proxy._obi_mode,))  # obilint: disable=OBI205 -- test fixture",
    )
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "suppressed_demand.py"
        path.write_text(patched, encoding="utf-8")
        report = analyze_paths([path], select={"OBI205"})
        assert not report.findings
        assert any(f.rule == "OBI205" for f in report.suppressed)
