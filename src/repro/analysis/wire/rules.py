"""The wire rules: OBI301–OBI303 and OBI306.

All four run off the shared :class:`~repro.analysis.wire.extract.Extraction`
(cached per engine run, like the flow Project).  The per-module errors
among them are proofs — a duplicated tag byte *is* ambiguous, a field
the serializer rejects *will* fail its first encode — so they are ERROR
severity; the one that rests on cross-artifact inference (OBI306) is a
warning, which still fails CI's ``--strict`` run.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.contract import UNSERIALIZABLE_FACTORIES
from repro.analysis.findings import Finding, ProjectRule, Severity
from repro.analysis.visitor import is_compiled_classdef, resolve_call_name
from repro.analysis.wire.diff import BREAKING, diff_specs
from repro.analysis.wire.extract import Extraction, RegisteredClass, spec_of
from repro.analysis.wire.spec import WireSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

#: Environment override for the committed baseline location (tests and
#: out-of-tree checkouts); without it the rule walks up from the first
#: analyzed file looking for the conventional path.
BASELINE_ENV = "OBIWIRE_BASELINE"
BASELINE_RELPATH = Path(".github") / "wire-baseline.json"

_BASELINE_CACHE_KEY = "wire-baseline-spec"


class _WireRule(ProjectRule):
    def check_project(
        self, modules: list["ModuleSource"], cache: dict
    ) -> Iterator[Finding]:
        return self.check_wire(Extraction.of(modules, cache), cache)

    def check_wire(self, extraction: Extraction, cache: dict) -> Iterator[Finding]:
        raise NotImplementedError


class TagCollisionRule(_WireRule):
    """OBI301: two wire tags share a byte value (or a name is reassigned)."""

    id = "OBI301"
    name = "tag-collision"
    severity = Severity.ERROR
    description = "a tag byte is assigned to two names in one tag table"
    rationale = (
        "The decoder dispatches on the first byte of every frame; two names "
        "sharing a value makes every frame of either kind ambiguous, and "
        "reassigning a name silently changes what deployed peers emit.  Tag "
        "values are append-only: new tags take the next free byte."
    )

    def check_wire(self, extraction: Extraction, cache: dict) -> Iterator[Finding]:
        for table in extraction.tag_tables:
            by_value: dict[int, str] = {}
            by_name: dict[str, int] = {}
            for assign in table.assigns:
                holder = by_value.get(assign.value)
                if holder is not None and holder != assign.name:
                    yield self.finding(
                        table.module,
                        assign.node,
                        f"tag {assign.name} = 0x{assign.value:02x} collides with "
                        f"{holder}; the decoder cannot tell the frames apart",
                    )
                else:
                    by_value[assign.value] = assign.name
                previous = by_name.get(assign.name)
                if previous is not None and previous != assign.value:
                    yield self.finding(
                        table.module,
                        assign.node,
                        f"tag {assign.name} reassigned from 0x{previous:02x} to "
                        f"0x{assign.value:02x}; deployed peers still use the old "
                        "value",
                    )
                by_name[assign.name] = assign.value


class WireBaselineDriftRule(_WireRule):
    """OBI302: the source breaks the committed wire baseline."""

    id = "OBI302"
    name = "wire-baseline-drift"
    severity = Severity.ERROR
    description = "a tag value or committed field layout differs from the wire baseline"
    rationale = (
        "The committed .github/wire-baseline.json records the wire contract "
        "deployed peers were built against.  Changing a tag's value, or "
        "removing, reordering or adding a field of a registered class, "
        "changes every frame exchanged with those peers.  Findings are the "
        "breaking changes 'obiwire check' lists, placed where each entity "
        "is declared; once every peer is rebuilt, refresh the baseline with "
        "'obiwire check --update'."
    )

    def check_wire(self, extraction: Extraction, cache: dict) -> Iterator[Finding]:
        baseline = _load_baseline(extraction, cache)
        if baseline is None:
            return
        tags = {
            assign.name: (table.module, assign.node)
            for table in extraction.tag_tables
            for assign in table.assigns
        }
        classes = {reg.wire_name: reg for reg in extraction.classes}
        for change in diff_specs(baseline, spec_of(extraction)):
            if change.kind != BREAKING:
                continue
            # Only what the source still declares has a place to anchor:
            # a removed tag, class or verb is for 'obiwire check' to report.
            wire_name, _dot, field_name = change.entity.rpartition(".")
            if change.entity in tags:
                module, node = tags[change.entity]
            elif change.entity in classes:
                reg = classes[change.entity]
                module, node = reg.module, _declaration(reg)
            elif wire_name in classes:
                reg = classes[wire_name]
                module = reg.module
                node = next(
                    (f.node for f in reg.fields if f.name == field_name), _declaration(reg)
                )
            else:
                continue
            yield self.finding(
                module,
                node,
                f"{change.category}: {change.entity} vs the wire baseline — "
                f"{change.detail}",
            )


class UnencodableWireFieldRule(_WireRule):
    """OBI303: a wire-visible field holds something the serializer rejects."""

    id = "OBI303"
    name = "unencodable-wire-field"
    severity = Severity.ERROR
    description = "a registered class carries a field no serializer can encode"
    rationale = (
        "A registered class's state crosses the wire; a lock, socket, thread "
        "or file handle in that state fails serialization at the first "
        "get/put that touches the instance — at runtime, on the hot path.  "
        "Keep process-local handles out of wire state (underscore fields "
        "are still wire-visible under reflective dict state)."
    )

    def check_wire(self, extraction: Extraction, cache: dict) -> Iterator[Finding]:
        for reg in extraction.classes:
            if reg.classdef is None:
                continue
            visible: set[str] | None
            if reg.state == "dict":
                visible = None  # every instance attribute travels
            else:
                visible = {f.name for f in reg.fields}
            yield from self._check_class(reg, visible)

    def _check_class(
        self, reg: RegisteredClass, visible: set[str] | None
    ) -> Iterator[Finding]:
        imports = reg.module.imports
        init = next(
            (
                stmt
                for stmt in reg.classdef.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        checked: list[tuple[str, ast.expr]] = []
        if init is not None:
            for node in ast.walk(init):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        checked.append((target.attr, value))
        for stmt in reg.classdef.body:
            # dataclass fields: ``x: Lock = field(default_factory=Lock)``.
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.value is not None:
                    checked.append((stmt.target.id, stmt.value))
        for attr, value in checked:
            if visible is not None and attr not in visible:
                continue
            reason = self._unencodable_reason(value, imports)
            if reason is not None:
                yield self.finding(
                    reg.module,
                    value,
                    f"{reg.wire_name}.{attr} is wire-visible but can never be "
                    f"serialized: {reason}",
                )

    @staticmethod
    def _unencodable_reason(value: ast.expr, imports: dict[str, str]) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        name = resolve_call_name(value.func, imports)
        if name in UNSERIALIZABLE_FACTORIES:
            return UNSERIALIZABLE_FACTORIES[name]
        # dataclasses.field(default_factory=threading.Lock)
        if name is not None and name.rsplit(".", 1)[-1] == "field":
            for keyword in value.keywords:
                if keyword.arg == "default_factory":
                    factory = resolve_call_name(keyword.value, imports)
                    if factory in UNSERIALIZABLE_FACTORIES:
                        return UNSERIALIZABLE_FACTORIES[factory]
        return None


class SchemaInputDriftRule(_WireRule):
    """OBI306: a compiled class's schema reads a field the instance may lack."""

    id = "OBI306"
    name = "schema-input-drift"
    severity = Severity.WARNING
    description = "a compiled class assigns a schema-visible field only conditionally"
    rationale = (
        "obicodec derives the wire schema by walking every self.X "
        "assignment in __init__ — including ones inside if/for/try blocks.  "
        "An instance that skipped the branch has no such attribute, so it "
        "never matches the schema its class compiled: every such instance "
        "drops to the generic OBJECT frame (field names on the wire, a "
        "reflective walk per value) and the schema hash covers a field "
        "half the instances lack.  Assign every schema field "
        "unconditionally (a sentinel default), then narrow inside the "
        "branch."
    )

    def check_wire(self, extraction: Extraction, cache: dict) -> Iterator[Finding]:
        for module in extraction.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and is_compiled_classdef(node):
                    yield from self._check_class(module, node)

    def _check_class(
        self, module: "ModuleSource", classdef: ast.ClassDef
    ) -> Iterator[Finding]:
        init = next(
            (
                stmt
                for stmt in classdef.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        unconditional: set[str] = set()
        for stmt in init.body:
            for attr, _value, _node in _self_assigns(stmt, recurse=False):
                unconditional.add(attr)
        for stmt in init.body:
            if not isinstance(stmt, ast.If | ast.For | ast.While | ast.Try):
                continue
            for attr, value, assign_node in _self_assigns(stmt, recurse=True):
                if attr in unconditional or attr.startswith("_"):
                    continue
                if _is_scalar_value(value):
                    yield self.finding(
                        module,
                        assign_node,
                        f"{classdef.name}.{attr} enters the compiled wire "
                        "schema (derive_schema walks the whole __init__) but "
                        "is only assigned on one branch; instances that skip "
                        "it fall off the compiled codec — assign a default "
                        "unconditionally first",
                    )


def _self_assigns(stmt: ast.stmt, *, recurse: bool):
    """``(attr, value, node)`` for ``self.X = ...`` under ``stmt``."""
    nodes = ast.walk(stmt) if recurse else [stmt]
    for node in nodes:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, value, node


def _is_scalar_value(value: ast.expr) -> bool:
    """Would this assignment give the field a scalar schema kind?"""
    if isinstance(value, ast.Constant):
        return isinstance(value.value, int | float | bool | str | bytes)
    if isinstance(value, ast.UnaryOp) and isinstance(value.operand, ast.Constant):
        return isinstance(value.operand.value, int | float)
    return False


# ----------------------------------------------------------------------
def _declaration(reg: RegisteredClass) -> ast.AST:
    """Where a class's wire shape is declared: its state getter, else its
    class statement, else its registration."""
    return reg.getter or reg.classdef or reg.node


def _load_baseline(extraction: Extraction, cache: dict) -> WireSpec | None:
    """The committed wire baseline, or None when there is none to honor."""
    if _BASELINE_CACHE_KEY in cache:
        return cache[_BASELINE_CACHE_KEY]
    spec: WireSpec | None = None
    path = _baseline_path(extraction)
    if path is not None:
        try:
            spec = WireSpec.load(path)
        except (OSError, ValueError):
            spec = None
    cache[_BASELINE_CACHE_KEY] = spec
    return spec


def _baseline_path(extraction: Extraction) -> Path | None:
    override = os.environ.get(BASELINE_ENV)
    if override:
        return Path(override)
    if not extraction.modules:
        return None
    try:
        anchor = extraction.modules[0].path.resolve()
    except OSError:  # pragma: no cover - unreadable cwd
        return None
    for parent in anchor.parents:
        candidate = parent / BASELINE_RELPATH
        if candidate.is_file():
            return candidate
    return None
