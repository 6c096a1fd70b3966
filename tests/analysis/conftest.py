"""Fixtures for the obilint test suite."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_paths


@pytest.fixture
def lint(tmp_path):
    """Analyze a source snippet; returns the list of (non-suppressed) findings.

    ``lint(source)`` runs every rule; ``lint(source, rule="OBI102")``
    narrows to one rule so positive/negative cases stay focused.
    """

    counter = [0]

    def run(source: str, *, rule: str | None = None, strict: bool = False):
        counter[0] += 1
        path = tmp_path / f"fixture_{counter[0]}.py"
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        report = analyze_paths(
            [path], select={rule} if rule else None, strict=strict
        )
        return report.all_findings()

    return run


@pytest.fixture
def flow_project(tmp_path):
    """Build a :class:`repro.analysis.flow.Project` from named snippets.

    ``flow_project(runtime="...", faults="...")`` writes one module per
    keyword and returns the Project over them, for unit tests that poke
    the symbol table / call graph / analyses directly.
    """
    from repro.analysis.engine import ModuleSource
    from repro.analysis.flow import Project

    def build(**sources):
        modules = []
        for name, source in sources.items():
            path = tmp_path / f"{name}.py"
            path.write_text(textwrap.dedent(source), encoding="utf-8")
            modules.append(ModuleSource.parse(path, display_path=f"{name}.py"))
        return Project(modules)

    return build


@pytest.fixture
def lint_report(tmp_path):
    """Like ``lint`` but returns the whole :class:`AnalysisReport`."""

    counter = [0]

    def run(source: str, *, rule: str | None = None, strict: bool = False):
        counter[0] += 1
        path = tmp_path / f"report_fixture_{counter[0]}.py"
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return analyze_paths([path], select={rule} if rule else None, strict=strict)

    return run
