"""The obilint engine: file collection, parsing, rule running.

The engine is deliberately simple — :func:`load_modules` parses each file
once, every selected rule sees the parsed :class:`ModuleSource` list,
findings are filtered through each module's suppression comments, and a
report is collated.  All policy (which severities fail the run) lives in
the report so the CLI and CI can share it.  obiwire loads its modules
through the same :func:`load_modules`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.suppressions import SuppressionIndex, parse_suppressions
from repro.analysis.visitor import import_map

#: Directory names a walk never descends into.  ``fixtures`` holds
#: seeded-defect corpora: they are analysed only when named explicitly.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hg", ".venv", "node_modules", "fixtures"})


@dataclass
class ModuleSource:
    """One parsed module, as rules see it."""

    path: Path
    display_path: str
    text: str
    tree: ast.Module
    suppressions: SuppressionIndex
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, *, display_path: str | None = None) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            display_path=display_path if display_path is not None else str(path),
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
            imports=import_map(tree),
        )


def _collect_files(paths: list[str | Path]) -> list[Path]:
    """Every ``.py`` file under ``paths``, in order, without duplicates.

    A named file or directory is always taken; a walk below it skips
    :data:`_SKIP_DIRS`.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS & set(candidate.relative_to(path).parts[:-1]):
                    files.append(candidate)
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    seen: set[Path] = set()
    unique = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def load_modules(paths: list[str | Path]) -> tuple[list[ModuleSource], list[Finding]]:
    """Collect and parse ``paths``: the parsed modules, and one OBI001
    finding per file that does not parse.

    Raises :class:`FileNotFoundError` for a path that does not exist.
    """
    modules: list[ModuleSource] = []
    failures: list[Finding] = []
    for path in _collect_files(paths):
        try:
            modules.append(ModuleSource.parse(path))
        except (SyntaxError, UnicodeDecodeError) as exc:
            failures.append(
                Finding(
                    rule="OBI001",
                    name="parse-error",
                    severity=Severity.ERROR,
                    path=str(path),
                    line=getattr(exc, "lineno", 1) or 1,
                    col=1,
                    message=f"cannot parse: {exc.msg if isinstance(exc, SyntaxError) else exc}",
                )
            )
    return modules, failures


@dataclass
class AnalysisReport:
    """Everything one run produced."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_analyzed: int
    parse_failures: list[Finding]

    def counts(self) -> dict[str, int]:
        counts = {"error": 0, "warning": 0}
        for finding in self.findings:
            counts[str(finding.severity)] += 1
        counts["error"] += len(self.parse_failures)
        return counts

    def failed(self, *, strict: bool = False) -> bool:
        counts = self.counts()
        if counts["error"]:
            return True
        return strict and counts["warning"] > 0

    def all_findings(self) -> list[Finding]:
        ordered = self.parse_failures + self.findings
        return sorted(ordered, key=lambda f: (f.path, f.line, f.col, f.rule))


class Analyzer:
    """Runs a rule catalog over a set of paths."""

    def __init__(
        self,
        rules: list[Rule],
        *,
        select: set[str] | None = None,
        ignore: set[str] | None = None,
        strict: bool = False,
    ):
        chosen = rules
        if select:
            keys = {k.upper() if k.upper().startswith("OBI") else k.lower() for k in select}
            chosen = [r for r in chosen if r.id in keys or r.name in keys]
        if ignore:
            keys = {k.upper() if k.upper().startswith("OBI") else k.lower() for k in ignore}
            chosen = [r for r in chosen if r.id not in keys and r.name not in keys]
        self.rules = chosen
        self.strict = strict

    def run(self, paths: list[str | Path]) -> AnalysisReport:
        modules, parse_failures = load_modules(paths)
        findings: list[Finding] = []
        suppressed: list[Finding] = []
        by_path = {module.display_path: module for module in modules}
        # Project rules share expensive artifacts (the flow Project)
        # through this per-run cache.
        cache: dict = {}
        for rule in self.rules:
            for finding in rule.check_project(modules, cache):
                owner = by_path.get(finding.path)
                if owner is not None and owner.suppressions.matches(
                    finding.rule, finding.name, finding.line
                ):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
        if self.strict:
            for module in modules:
                findings.extend(_bare_suppressions(module))
        return AnalysisReport(
            findings=findings,
            suppressed=suppressed,
            files_analyzed=len(modules) + len(parse_failures),
            parse_failures=parse_failures,
        )


def _bare_suppressions(module: ModuleSource) -> list[Finding]:
    """In strict mode a suppression must say *why* (after ``--``)."""
    return [
        Finding(
            rule="OBI002",
            name="bare-suppression",
            severity=Severity.ERROR,
            path=module.display_path,
            line=suppression.line,
            col=1,
            message=(
                "suppression without justification; append "
                "'-- <reason>' explaining why the hazard is acceptable"
            ),
        )
        for suppression in module.suppressions.all()
        if not suppression.justification
    ]


def analyze_paths(
    paths: list[str | Path],
    *,
    rules: list[Rule] | None = None,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    strict: bool = False,
) -> AnalysisReport:
    """Convenience wrapper: run the default catalog over ``paths``."""
    from repro.analysis.rules import build_rules

    analyzer = Analyzer(
        rules if rules is not None else build_rules(),
        select=select,
        ignore=ignore,
        strict=strict,
    )
    return analyzer.run(paths)
