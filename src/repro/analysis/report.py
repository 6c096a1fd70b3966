"""Rendering analysis reports: human text, machine JSON, and SARIF."""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisReport
from repro.analysis.findings import Finding, Rule

#: Schema version of the JSON report; bump on incompatible changes.
JSON_SCHEMA_VERSION = 1

#: The SARIF spec version the renderer targets.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(report: AnalysisReport, *, strict: bool = False, verbose: bool = False) -> str:
    lines = [finding.format() for finding in report.all_findings()]
    if verbose and report.suppressed:
        for finding in sorted(report.suppressed, key=lambda f: (f.path, f.line)):
            lines.append(f"{finding.format()} [suppressed]")
    counts = report.counts()
    summary = (
        f"obilint: {report.files_analyzed} files, "
        f"{counts['error']} errors, {counts['warning']} warnings, "
        f"{len(report.suppressed)} suppressed"
    )
    if report.failed(strict=strict):
        summary += " — FAIL"
    else:
        summary += " — OK"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport, *, strict: bool = False) -> str:
    counts = report.counts()
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_analyzed": report.files_analyzed,
        "strict": strict,
        "failed": report.failed(strict=strict),
        "summary": {
            "errors": counts["error"],
            "warnings": counts["warning"],
            "suppressed": len(report.suppressed),
        },
        "findings": [finding.to_json() for finding in report.all_findings()],
        "suppressed": [finding.to_json() for finding in report.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(
    report: AnalysisReport, rules: list[Rule], *, strict: bool = False
) -> str:
    """SARIF 2.1.0, the interchange format code-scanning UIs ingest.

    One run, one ``tool.driver`` carrying the whole rule catalog, one
    ``result`` per finding.
    """
    catalog = [
        {
            "id": rule.id,
            "name": _sarif_rule_name(rule.name),
            "shortDescription": {"text": rule.description or rule.name},
            "fullDescription": {"text": rule.rationale or rule.description or rule.name},
            "defaultConfiguration": {"level": str(rule.severity)},
        }
        for rule in rules
    ]
    results = [_sarif_result(finding) for finding in report.all_findings()]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "obilint",
                        "informationUri": "https://example.invalid/obilint",
                        "rules": catalog,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule,
        "level": str(finding.severity),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
    }


def _sarif_rule_name(name: str) -> str:
    """SARIF wants PascalCase rule names: ``unguarded-state`` → ``UnguardedState``."""
    return "".join(part.capitalize() for part in name.split("-"))


def render_rule_catalog(rules: list[Rule]) -> str:
    lines = []
    for rule in rules:
        lines.append(f"{rule.id}  {rule.name}  [{rule.severity}]")
        lines.append(f"    {rule.description}")
        if rule.rationale:
            lines.append(f"    why: {rule.rationale}")
    return "\n".join(lines)
