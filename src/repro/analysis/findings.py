"""Findings, severities, and the rule base class."""

from __future__ import annotations

import ast
import enum
from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the run; ``WARNING`` findings fail only under
    ``--strict`` (the CI configuration).
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str  # e.g. "OBI102"
    name: str  # e.g. "interface-shadowing"
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.severity}: {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class Rule:
    """Base class for obilint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one parsed module.  Rules must be pure functions
    of the module source: no filesystem access, no global state — the
    engine may run them in any order.  A whole-program rule overrides
    :meth:`check_project` instead, to follow calls across files.
    """

    id: str = "OBI000"
    name: str = "abstract-rule"
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(
        self, modules: list["ModuleSource"], cache: dict
    ) -> Iterator[Finding]:
        """What the engine calls, once per run with every parsed module.

        The default runs :meth:`check` over each module.  ``cache`` is
        shared by all rules of one run, so whole-program rules can share
        expensive artifacts (the symbol table, the call graph) without
        global state leaking between runs.
        """
        for module in modules:
            yield from self.check(module)

    def finding(
        self,
        module: "ModuleSource",
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.id,
            name=self.name,
            severity=self.severity,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )
