"""Project-wide symbol table for the flow layer.

One pass over every parsed module collects what the interprocedural
analyses need:

* every module-level function, class, and method (nested functions are
  indexed too — they run outside their enclosing function's locks, so
  they get summaries of their own);
* per-class **lock attributes**: ``self.x = threading.Lock()`` (or the
  runtime's ``StripeLock()``) in any method, or a dataclass field whose
  ``default_factory`` (or annotation) is a lock;
* light **attribute-type inference** so the call graph can resolve
  bound-method dispatch: ``self.endpoint = endpoint`` with an annotated
  parameter, ``self.x = ClassName(...)``, and annotated assignments.

Lock identities are class-qualified (``Site._lock``) — the analyses
reason per *class*, the standard abstraction for lock-order and
guarded-state checking (two instances of one class use their locks the
same way the code does).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.contract import SNAPSHOT_READ_DECORATORS
from repro.analysis.visitor import dotted_name, resolve_call_name, self_attr_target

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

#: Constructors whose result is a lock (order/guard analyses track these).
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "repro.core.striping.StripeLock",
    }
)


@dataclass
class FunctionInfo:
    """One function or method, addressable across the project."""

    qualname: str  # "Site.begin_demand", "resolve_fault", "outer.<locals>.inner"
    name: str
    module: "ModuleSource"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    #: Declared ``@snapshot_read`` — a lock-free read path (see OBI209).
    snapshot_read: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.module.display_path, self.qualname)

    @property
    def is_private(self) -> bool:
        return self.name.startswith("_") and not self.name.startswith("__")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname!r} @ {self.module.display_path})"


@dataclass
class ClassInfo:
    """One class: methods, lock attributes, inferred attribute types."""

    name: str
    module: "ModuleSource"
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    lock_attrs: set[str] = field(default_factory=set)
    #: ``self.x`` → simple class name, when inferable.
    attr_types: dict[str, str] = field(default_factory=dict)
    base_names: set[str] = field(default_factory=set)


def _annotation_class(annotation: ast.expr | None) -> str | None:
    """The simple class name an annotation refers to, if any.

    Handles ``Site``, ``pkg.Site``, ``"Site"`` (string annotations) and
    ``Site | None`` / ``Optional[Site]`` by picking the lone class-like
    component.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        parts = [_annotation_class(annotation.left), _annotation_class(annotation.right)]
        named = [p for p in parts if p is not None]
        return named[0] if len(named) == 1 else None
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base is not None and base.rsplit(".", 1)[-1] == "Optional":
            return _annotation_class(annotation.slice)
        return None
    name = dotted_name(annotation)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    if tail in {"None", "Optional", "Any", "object"}:
        return None
    return tail


def _is_lock_factory_call(value: ast.expr, imports: dict[str, str]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    resolved = resolve_call_name(value.func, imports)
    if resolved in LOCK_FACTORIES:
        return True
    # dataclasses.field(default_factory=threading.Lock)
    if resolved is not None and resolved.rsplit(".", 1)[-1] == "field":
        for keyword in value.keywords:
            if keyword.arg == "default_factory":
                factory = resolve_call_name(keyword.value, imports)
                if factory in LOCK_FACTORIES:
                    return True
    return False


def _is_snapshot_read(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        expr = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(expr)
        if name is not None and name.rsplit(".", 1)[-1] in SNAPSHOT_READ_DECORATORS:
            return True
    return False


class SymbolTable:
    """All classes and functions of one analysis run."""

    def __init__(self) -> None:
        #: simple class name → every project class with that name.
        self.classes: dict[str, list[ClassInfo]] = {}
        #: (module display path, local name) → module-level function.
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}
        #: method name → every method with that name (unique-name dispatch).
        self.methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: function simple name → every module-level function with it.
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
        #: every function in the project, in deterministic order.
        self.functions: list[FunctionInfo] = []
        #: dotted suffix ("repro.core.faults") → module display paths.
        self._module_dotted: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, modules: list["ModuleSource"]) -> "SymbolTable":
        table = cls()
        for module in modules:
            table._index_module(module)
        for infos in table.classes.values():
            for info in infos:
                table._infer_class_details(info)
        return table

    def _index_module(self, module: "ModuleSource") -> None:
        for suffix in _dotted_suffixes(module.display_path):
            self._module_dotted.setdefault(suffix, []).append(module.display_path)
        for node in module.tree.body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
                self._index_function(module, node, prefix="", class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)

    def _index_class(self, module: "ModuleSource", node: ast.ClassDef) -> None:
        info = ClassInfo(
            name=node.name,
            module=module,
            node=node,
            base_names={
                name.rsplit(".", 1)[-1]
                for base in node.bases
                if (name := dotted_name(base)) is not None
            },
        )
        self.classes.setdefault(node.name, []).append(info)
        for child in node.body:
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                method = FunctionInfo(
                    qualname=f"{node.name}.{child.name}",
                    name=child.name,
                    module=module,
                    node=child,
                    class_name=node.name,
                    snapshot_read=_is_snapshot_read(child),
                )
                info.methods[child.name] = method
                self.methods_by_name.setdefault(child.name, []).append(method)
                self.functions.append(method)
                self._index_nested(module, child, f"{node.name}.{child.name}", node.name)

    def _index_function(
        self,
        module: "ModuleSource",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        class_name: str | None,
    ) -> None:
        qualname = f"{prefix}{node.name}" if prefix else node.name
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            module=module,
            node=node,
            class_name=class_name,
            snapshot_read=_is_snapshot_read(node),
        )
        if not prefix:
            self.module_functions[(module.display_path, node.name)] = info
            self.functions_by_name.setdefault(node.name, []).append(info)
        self.functions.append(info)
        self._index_nested(module, node, qualname, class_name)

    def _index_nested(
        self,
        module: "ModuleSource",
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_name: str | None,
    ) -> None:
        for child in ast.walk(func):
            if child is func or not isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
                continue
            if _direct_parent_function(func, child) is func:
                self._index_function(
                    module,
                    child,
                    prefix=f"{qualname}.<locals>.",
                    class_name=class_name,
                )

    # ------------------------------------------------------------------
    # per-class inference
    # ------------------------------------------------------------------
    def _infer_class_details(self, info: ClassInfo) -> None:
        imports = info.module.imports
        # Class-body fields: dataclass lock fields and annotated attributes.
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                attr = stmt.target.id
                annotated = _annotation_class(stmt.annotation)
                resolved = (
                    resolve_call_name(stmt.annotation, imports)
                    if not isinstance(stmt.annotation, ast.Constant)
                    else None
                )
                if resolved in LOCK_FACTORIES or (
                    stmt.value is not None and _is_lock_factory_call(stmt.value, imports)
                ):
                    info.lock_attrs.add(attr)
                elif annotated is not None and annotated in self.classes:
                    info.attr_types[attr] = annotated
        # Method bodies: self.x = ... assignments.
        for method in info.methods.values():
            param_types = parameter_types(method.node)
            for node in ast.walk(method.node):
                if isinstance(node, ast.AnnAssign):
                    attr = self_attr_target(node.target)
                    if attr is None:
                        continue
                    if node.value is not None and _is_lock_factory_call(node.value, imports):
                        info.lock_attrs.add(attr)
                        continue
                    annotated = _annotation_class(node.annotation)
                    if annotated is not None and annotated in self.classes:
                        info.attr_types.setdefault(attr, annotated)
                elif isinstance(node, ast.Assign):
                    value = node.value
                    for target in node.targets:
                        attr = self_attr_target(target)
                        if attr is None:
                            continue
                        if _is_lock_factory_call(value, imports):
                            info.lock_attrs.add(attr)
                        else:
                            inferred = self._value_class(value, param_types, imports)
                            if inferred is not None:
                                info.attr_types.setdefault(attr, inferred)

    def _value_class(
        self,
        value: ast.expr,
        param_types: dict[str, str],
        imports: dict[str, str],
    ) -> str | None:
        """The class a value expression constructs or carries, if known."""
        if isinstance(value, ast.Name):
            inferred = param_types.get(value.id)
            return inferred if inferred in self.classes else None
        if isinstance(value, ast.Call):
            name = resolve_call_name(value.func, imports)
            if name is None:
                return None
            tail = name.rsplit(".", 1)[-1]
            return tail if tail in self.classes else None
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def class_named(self, name: str) -> list[ClassInfo]:
        return self.classes.get(name, [])

    def subclasses_of(self, name: str) -> list[ClassInfo]:
        """Project classes that (transitively) list ``name`` as a base."""
        out: list[ClassInfo] = []
        frontier = {name}
        seen = set(frontier)
        while frontier:
            next_frontier: set[str] = set()
            for infos in self.classes.values():
                for info in infos:
                    if info.name in seen:
                        continue
                    if info.base_names & frontier:
                        out.append(info)
                        next_frontier.add(info.name)
            seen |= next_frontier
            frontier = next_frontier
        return out

    def resolve_method(self, class_name: str, method: str) -> list[FunctionInfo]:
        """``method`` as dispatched on an instance of ``class_name``.

        Looks in the class itself, then project base classes (inherited
        implementations), and includes project subclass overrides —
        virtual dispatch over the classes the analyzer can see.
        """
        found: list[FunctionInfo] = []
        seen_keys: set[tuple[str, str]] = set()

        def add(info: FunctionInfo | None) -> None:
            if info is not None and info.key not in seen_keys:
                seen_keys.add(info.key)
                found.append(info)

        pending = list(self.class_named(class_name))
        visited: set[str] = set()
        while pending:
            cls = pending.pop()
            if cls.name in visited:
                continue
            visited.add(cls.name)
            if method in cls.methods:
                add(cls.methods[method])
            else:
                for base in cls.base_names:
                    pending.extend(self.class_named(base))
        for sub in self.subclasses_of(class_name):
            add(sub.methods.get(method))
        return found

    def modules_for_dotted(self, dotted: str) -> list[str]:
        return self._module_dotted.get(dotted, [])


def parameter_types(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    """Parameter name → annotated simple class name."""
    types: dict[str, str] = {}
    args = func.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        annotated = _annotation_class(arg.annotation)
        if annotated is not None:
            types[arg.arg] = annotated
    return types


def _direct_parent_function(
    root: ast.AST, target: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost function enclosing ``target`` under ``root``."""
    result: list[ast.FunctionDef | ast.AsyncFunctionDef | None] = [None]

    def visit(node: ast.AST, owner) -> None:
        for child in ast.iter_child_nodes(node):
            if child is target:
                result[0] = owner
                return
            next_owner = (
                child if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef) else owner
            )
            visit(child, next_owner)

    visit(root, root if isinstance(root, ast.FunctionDef | ast.AsyncFunctionDef) else None)
    return result[0]


def _dotted_suffixes(display_path: str) -> list[str]:
    """Dotted module names a file path can answer to.

    ``src/repro/core/faults.py`` → ``faults``, ``core.faults``,
    ``repro.core.faults``, ``src.repro.core.faults`` — so imports of
    ``repro.core.faults`` match the file regardless of the path prefix
    the analyzer was invoked with.
    """
    parts = display_path.replace("\\", "/").split("/")
    if not parts:
        return []
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    if stem == "__init__":
        parts = parts[:-1]
        if not parts:
            return []
        segments = parts
    else:
        segments = parts[:-1] + [stem]
    suffixes = []
    for start in range(len(segments)):
        suffixes.append(".".join(segments[start:]))
    return suffixes
