"""Shared AST utilities for obilint rules.

Rules work on plain :mod:`ast` trees; these helpers answer the questions
every rule asks — "what is this call's dotted name, after imports?",
"is this class obicomp-compiled?", "which methods are public?" — in one
place so each rule stays a screenful.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

#: Decorator spellings that mark a class as obicomp-compiled.
COMPILE_DECORATORS: frozenset[str] = frozenset(
    {
        "compile",
        "compile_class",
        "obiwan.compile",
        "obiwan.compile_class",
        "port_legacy_class",
        "obiwan.port_legacy_class",
    }
)

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import threading`` -> ``{"threading": "threading"}``;
    ``from threading import Lock as L`` -> ``{"L": "threading.Lock"}``.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def resolve_call_name(node: ast.AST, imports: dict[str, str]) -> str | None:
    """The fully-qualified dotted name of a callable expression.

    Resolves the leading segment through ``imports`` so that both
    ``threading.Lock`` and ``from threading import Lock; Lock`` resolve
    to ``"threading.Lock"``.
    """
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    origin = imports.get(head)
    if origin is None:
        return name
    return f"{origin}.{rest}" if rest else origin


def decorator_names(classdef: ast.ClassDef) -> set[str]:
    """Dotted names of a class's decorators, unwrapping calls."""
    names: set[str] = set()
    for deco in classdef.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is not None:
            names.add(name)
    return names


def is_compiled_classdef(classdef: ast.ClassDef) -> bool:
    """True if the class carries an obicomp compile decorator."""
    return bool(decorator_names(classdef) & COMPILE_DECORATORS)


def iter_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def iter_methods(classdef: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in classdef.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            yield node


def public_methods(classdef: ast.ClassDef) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for method in iter_methods(classdef):
        if not method.name.startswith("_"):
            yield method


def self_attr_target(node: ast.expr) -> str | None:
    """``x`` when ``node`` is the assignment target ``self.x``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
