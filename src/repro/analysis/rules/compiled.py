"""Rules about obicomp-compiled classes (OBI102, OBI306).

These see what the runtime cannot check when a class is decorated:
control-name shadowing, and schema fields an ``__init__`` assigns only
on some paths.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.contract import RESERVED_CONTROL_METHODS
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.visitor import (
    is_compiled_classdef,
    iter_classes,
    public_methods,
    self_attr_target,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource


class InterfaceShadowingRule(Rule):
    """OBI102: compiled classes must not shadow proxy-in control names.

    The proxy-in forwards unknown attributes to the master, but its own
    ``get``/``put``/``demand``/``get_version`` take precedence — a user
    method with one of those names becomes unreachable via RMI, and a
    proxy-out fault on it would resolve the *platform* verb instead of
    the business method.
    """

    id = "OBI102"
    name = "interface-shadowing"
    severity = Severity.ERROR
    description = (
        "public method on a compiled class collides with a reserved "
        "ReplicationInterfaces name (get/put/demand/get_version/updateMember)"
    )
    rationale = "shadowed control verbs break fault resolution and RMI dispatch"

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for classdef in iter_classes(module.tree):
            if not is_compiled_classdef(classdef):
                continue
            for method in public_methods(classdef):
                if method.name in RESERVED_CONTROL_METHODS:
                    yield self.finding(
                        module,
                        method,
                        f"method {classdef.name}.{method.name}() shadows the "
                        f"reserved proxy-in control name {method.name!r}; rename "
                        "it (e.g. fetch_/store_) so fault resolution stays sound",
                    )


class SchemaInputDriftRule(Rule):
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

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        for classdef in iter_classes(module.tree):
            if is_compiled_classdef(classdef):
                yield from self._check_class(module, classdef)

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
            attr = self_attr_target(target)
            if attr is not None:
                yield attr, value, node


def _is_scalar_value(value: ast.expr) -> bool:
    """Would this assignment give the field a scalar schema kind?"""
    if isinstance(value, ast.Constant):
        return isinstance(value.value, int | float | bool | str | bytes)
    if isinstance(value, ast.UnaryOp) and isinstance(value.operand, ast.Constant):
        return isinstance(value.operand.value, int | float)
    return False
