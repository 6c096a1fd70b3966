"""Call graph over the project symbol table.

Resolution is deliberately conservative — an edge the analyzer cannot
justify is worse than a missing one, because held-lock sets propagate
along edges.  A call resolves when one of these applies, tried in order:

* ``name(...)`` — a function defined in the same module, or one imported
  from a project module (matched through the import map against the
  project's dotted module names);
* ``ClassName(...)`` — the project class's ``__init__``;
* ``self.m(...)`` — method ``m`` on the enclosing class (or a project
  base class), plus project subclass overrides (virtual dispatch);
* ``super().m(...)`` — ``m`` on the project base classes;
* ``recv.m(...)`` where the receiver's class is known — from an
  annotated parameter, a local ``x = ClassName(...)`` assignment, or an
  inferred ``self.attr`` type — again with subclass overrides;
* **unique-name fallback**: ``recv.m(...)`` with an unknown receiver
  resolves only if exactly one project class defines ``m`` and the name
  is not a common builtin-container verb (``get``, ``append``, …).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.flow.symbols import (
    FunctionInfo,
    SymbolTable,
    parameter_types,
)
from repro.analysis.visitor import resolve_call_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

#: Method names too generic for unique-name dispatch — they collide with
#: builtin container/str methods, so a lone project definition proves
#: nothing about an unknown receiver.
AMBIGUOUS_METHOD_NAMES = frozenset(
    {
        "get", "put", "set", "add", "pop", "clear", "update", "append",
        "close", "send", "read", "write", "items", "keys", "values",
        "copy", "next", "run", "start", "join", "wait", "acquire",
        "release", "encode", "decode", "format", "count", "index",
        "sort", "reverse", "extend", "insert", "remove", "discard",
        "setdefault", "popitem", "split", "strip", "lower", "upper",
        "match", "search", "replace", "open",
    }
)


@dataclass
class CallSite:
    """One resolved call: where it happens and what it may reach."""

    caller: FunctionInfo
    node: ast.Call
    callees: tuple[FunctionInfo, ...]


@dataclass
class CallGraph:
    """Call sites per function, plus the reverse (caller) index."""

    symtab: SymbolTable
    sites: dict[tuple[str, str], list[CallSite]] = field(default_factory=dict)
    callers: dict[tuple[str, str], list[CallSite]] = field(default_factory=dict)

    @classmethod
    def build(cls, symtab: SymbolTable) -> "CallGraph":
        graph = cls(symtab=symtab)
        for func in symtab.functions:
            resolver = _Resolver(symtab, func)
            own_sites: list[CallSite] = []
            for node in _own_calls(func.node):
                callees = resolver.resolve(node)
                if callees:
                    site = CallSite(caller=func, node=node, callees=tuple(callees))
                    own_sites.append(site)
                    for callee in callees:
                        graph.callers.setdefault(callee.key, []).append(site)
            graph.sites[func.key] = own_sites
        return graph

    def sites_of(self, func: FunctionInfo) -> list[CallSite]:
        return self.sites.get(func.key, [])

    def callers_of(self, func: FunctionInfo) -> list[CallSite]:
        return self.callers.get(func.key, [])


class _Resolver:
    """Resolves call expressions inside one function."""

    def __init__(self, symtab: SymbolTable, func: FunctionInfo):
        self.symtab = symtab
        self.func = func
        self.module: "ModuleSource" = func.module
        self.local_types = parameter_types(func.node)
        self.self_name = _self_parameter(func)
        # Local ``x = ClassName(...)`` / annotated assignments refine types.
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = resolve_call_name(node.value.func, self.module.imports)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail in symtab.classes:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.local_types.setdefault(target.id, tail)

    def resolve(self, node: ast.Call) -> list[FunctionInfo]:
        func_expr = node.func
        if isinstance(func_expr, ast.Name):
            return self._resolve_name(func_expr.id)
        if isinstance(func_expr, ast.Attribute):
            return self._resolve_attribute(func_expr)
        return []

    # ------------------------------------------------------------------
    def _resolve_name(self, name: str) -> list[FunctionInfo]:
        local = self.symtab.module_functions.get((self.module.display_path, name))
        if local is not None:
            return [local]
        if name in self.symtab.classes:
            return self.symtab.resolve_method(name, "__init__")
        origin = self.module.imports.get(name)
        if origin is not None and "." in origin:
            module_part, _, func_name = origin.rpartition(".")
            for path in self.symtab.modules_for_dotted(module_part):
                info = self.symtab.module_functions.get((path, func_name))
                if info is not None:
                    return [info]
            if func_name in self.symtab.classes:
                return self.symtab.resolve_method(func_name, "__init__")
        return []

    def _resolve_attribute(self, expr: ast.Attribute) -> list[FunctionInfo]:
        method = expr.attr
        receiver = expr.value
        # self.m(...)
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == self.self_name
            and self.func.class_name is not None
        ):
            resolved = self.symtab.resolve_method(self.func.class_name, method)
            if resolved:
                return resolved
        # super().m(...)
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and self.func.class_name is not None
        ):
            for cls in self.symtab.class_named(self.func.class_name):
                for base in cls.base_names:
                    resolved = self.symtab.resolve_method(base, method)
                    if resolved:
                        return resolved
            return []
        receiver_class = self._receiver_class(receiver)
        if receiver_class is not None:
            resolved = self.symtab.resolve_method(receiver_class, method)
            if resolved:
                return resolved
            return []
        # module.function(...) through the import map
        dotted = resolve_call_name(expr, self.module.imports)
        if dotted is not None and "." in dotted:
            module_part, _, func_name = dotted.rpartition(".")
            for path in self.symtab.modules_for_dotted(module_part):
                info = self.symtab.module_functions.get((path, func_name))
                if info is not None:
                    return [info]
        # Unique-name fallback for unknown receivers.  Owners are keyed by
        # (module, class): two same-named classes in different modules are
        # different receivers, and merging their methods would fuse
        # call-graph edges (and lock contexts) that never meet at runtime.
        if method not in AMBIGUOUS_METHOD_NAMES:
            candidates = self.symtab.methods_by_name.get(method, [])
            owning = {
                (info.module.display_path, info.class_name) for info in candidates
            }
            if len(owning) == 1 and candidates:
                return list(candidates)
        return []

    def _receiver_class(self, receiver: ast.expr) -> str | None:
        """The simple class name of a call receiver, when inferable."""
        if isinstance(receiver, ast.Name):
            if receiver.id == self.self_name:
                return self.func.class_name
            inferred = self.local_types.get(receiver.id)
            if inferred in self.symtab.classes:
                return inferred
            return None
        if isinstance(receiver, ast.Attribute):
            base = receiver.value
            owner: str | None = None
            if isinstance(base, ast.Name):
                if base.id == self.self_name:
                    owner = self.func.class_name
                else:
                    owner = self.local_types.get(base.id)
            elif isinstance(base, ast.Attribute):
                owner = self._receiver_class(base)
            if owner is None:
                return None
            for cls in self.symtab.class_named(owner):
                inferred = cls.attr_types.get(receiver.attr)
                if inferred is not None:
                    return inferred
        return None


def _own_calls(func: ast.FunctionDef | ast.AsyncFunctionDef):
    """Call nodes in ``func``'s own body, skipping nested function bodies
    (they run later, as functions of their own)."""
    stack: list[ast.AST] = [func]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
                continue
            if isinstance(child, ast.Call):
                yield child
            stack.append(child)


def _self_parameter(func: FunctionInfo) -> str | None:
    if func.class_name is None:
        return None
    args = func.node.args
    ordered = [*args.posonlyargs, *args.args]
    return ordered[0].arg if ordered else None
