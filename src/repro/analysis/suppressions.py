"""``# obilint: disable=RULE`` suppression comments.

Two forms, pylint-style:

* same-line: ``def get(self):  # obilint: disable=OBI102 -- why``
  suppresses the listed rules on that physical line only;
* file-level: a comment line ``# obilint: disable-file=OBI108 -- why``
  suppresses the listed rules for the whole module.

Rules may be named by id (``OBI102``) or slug (``interface-shadowing``).
Text after ``--`` is the justification; ``--strict`` requires one, so a
suppression in CI always says *why* the hazard is acceptable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_DIRECTIVE = re.compile(
    r"#\s*obilint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,\s-]+?)\s*(?:--\s*(?P<why>.*))?$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed directive."""

    rules: frozenset[str]
    line: int  # physical line of the comment
    file_level: bool
    justification: str


@dataclass
class SuppressionIndex:
    """All directives of one module, queryable per finding."""

    by_line: dict[int, list[Suppression]] = field(default_factory=dict)
    file_level: list[Suppression] = field(default_factory=list)

    def all(self) -> list[Suppression]:
        flat = list(self.file_level)
        for entries in self.by_line.values():
            flat.extend(entries)
        return flat

    def matches(self, rule_id: str, rule_name: str, line: int) -> bool:
        keys = {rule_id.upper(), rule_name.lower()}
        for suppression in self.file_level:
            if suppression.rules & keys:
                return True
        for suppression in self.by_line.get(line, ()):
            if suppression.rules & keys:
                return True
        return False


def parse_suppressions(text: str) -> SuppressionIndex:
    index = SuppressionIndex()
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _DIRECTIVE.search(line)
        if match is None:
            continue
        rules = frozenset(
            token.strip().upper() if token.strip().upper().startswith("OBI") else token.strip().lower()
            for token in match.group("rules").split(",")
            if token.strip()
        )
        if not rules:
            continue
        suppression = Suppression(
            rules=rules,
            line=lineno,
            file_level=match.group("kind") == "disable-file",
            justification=(match.group("why") or "").strip(),
        )
        if suppression.file_level:
            index.file_level.append(suppression)
        else:
            index.by_line.setdefault(lineno, []).append(suppression)
    return index
