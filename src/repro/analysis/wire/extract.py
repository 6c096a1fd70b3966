"""Whole-program extraction of the wire contract.

Four passes over the parsed modules, all purely syntactic (no imports of
the analyzed code, so the extractor works on fixtures and broken trees
alike):

* **tag tables** — modules that look like :mod:`repro.serial.tags`
  (named ``tags.py`` or defining several canonical tag names) contribute
  their ``UPPER = int`` assignments;
* **registrations** — ``global_registry.register(Cls, name="wire.Name",
  get_state=..., ...)`` calls, both the direct form and the
  loop-over-pairs idiom ``for _cls, _name in ((A, "a"), ...):``;
* **state shapes** — a ``@dataclass(slots=True)`` registered without
  state hooks *declares* its schema: its annotated fields, in order, are
  the positional frame :mod:`repro.serial.compiled` generates
  (``struct``).  For any other registered class the getter
  (``__getstate__`` or the ``get_state=`` function) yields the field
  list in wire order (its longest tuple return);
* **verbs** — every literal RMI verb the flow layer sees
  (:func:`repro.analysis.flow.protocol.verb_events_of`).

:func:`extract_modules` assembles the four into the canonical
:class:`WireSpec`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.analysis.flow.protocol import verb_events_of
from repro.analysis.flow.symbols import SymbolTable
from repro.analysis.visitor import dotted_name
from repro.analysis.wire.spec import WireClass, WireField, WireSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

#: Names whose presence marks a module as a tag table even if it is not
#: literally called ``tags.py`` (fixtures, vendored copies).
_CANONICAL_TAG_NAMES = frozenset(
    {"NONE", "FALSE", "TRUE", "INT", "FLOAT", "STR", "BYTES", "LIST", "TUPLE", "DICT", "OBJECT"}
)
_TAG_MODULE_THRESHOLD = 3



# ----------------------------------------------------------------------
# tags
# ----------------------------------------------------------------------
def _tags_of(module: "ModuleSource") -> dict[str, int]:
    """The module's tag assignments, or nothing if it is no tag table."""
    tags: dict[str, int] = {}
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id.isupper()
            and isinstance(stmt.value, ast.Constant)
            and type(stmt.value.value) is int
        ):
            tags.setdefault(stmt.targets[0].id, stmt.value.value)
    stem = module.display_path.replace("\\", "/").rsplit("/", 1)[-1]
    if stem != "tags.py" and len(tags.keys() & _CANONICAL_TAG_NAMES) < _TAG_MODULE_THRESHOLD:
        return {}
    return tags


# ----------------------------------------------------------------------
# registrations
# ----------------------------------------------------------------------
def _is_register_call(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    if node.func.attr != "register":
        return False
    base = dotted_name(node.func.value)
    return base is not None and "registry" in base.rsplit(".", 1)[-1].lower()


def _loop_pairs(
    loop: ast.For, cls_var: str, name_var: str
) -> list[tuple[str, str]]:
    """``for _cls, _name in ((A, "a"), (B, "b")):`` → [("A","a"), ...]."""
    if not isinstance(loop.target, ast.Tuple):
        return []
    targets = [t.id for t in loop.target.elts if isinstance(t, ast.Name)]
    if cls_var not in targets or name_var not in targets:
        return []
    cls_at, name_at = targets.index(cls_var), targets.index(name_var)
    if not isinstance(loop.iter, ast.Tuple | ast.List):
        return []
    pairs: list[tuple[str, str]] = []
    for elt in loop.iter.elts:
        if not (isinstance(elt, ast.Tuple) and len(elt.elts) == len(targets)):
            continue
        cls_elt, name_elt = elt.elts[cls_at], elt.elts[name_at]
        if (
            isinstance(cls_elt, ast.Name)
            and isinstance(name_elt, ast.Constant)
            and isinstance(name_elt.value, str)
        ):
            pairs.append((cls_elt.id, name_elt.value))
    return pairs


def _registrations_of(module: "ModuleSource") -> list[tuple[str, WireClass]]:
    loops = [n for n in ast.walk(module.tree) if isinstance(n, ast.For)]
    classdefs = {
        n.name: n for n in module.tree.body if isinstance(n, ast.ClassDef)
    }
    functions = {
        n.name: n for n in module.tree.body if isinstance(n, ast.FunctionDef)
    }
    out: list[tuple[str, WireClass]] = []
    for call in ast.walk(module.tree):
        if not _is_register_call(call) or not call.args:
            continue
        arg0 = call.args[0]
        if not isinstance(arg0, ast.Name):
            continue
        keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        name_kw = keywords.get("name")
        custom_state = bool(
            {"get_state", "set_state", "factory"} & keywords.keys()
        )
        getter_name = (
            keywords["get_state"].id
            if isinstance(keywords.get("get_state"), ast.Name)
            else None
        )
        setter_name = (
            keywords["set_state"].id
            if isinstance(keywords.get("set_state"), ast.Name)
            else None
        )
        if isinstance(name_kw, ast.Constant) and isinstance(name_kw.value, str):
            pairs = [(arg0.id, name_kw.value)]
        elif isinstance(name_kw, ast.Name):
            loop = next(
                (l for l in loops if any(n is call for n in ast.walk(l))), None
            )
            pairs = _loop_pairs(loop, arg0.id, name_kw.id) if loop is not None else []
        else:
            # No literal wire name — a dynamic registration (porting,
            # decorator helpers) outside the static contract.
            continue
        for class_name, wire_name in pairs:
            state, fields = _state_shape(
                classdefs.get(class_name), functions, getter_name, setter_name
            )
            out.append(
                (
                    wire_name,
                    WireClass(
                        cls=class_name,
                        module=module.display_path.replace("\\", "/"),
                        state=state,
                        custom_state=custom_state,
                        fields=tuple(WireField(name=name) for name in fields),
                    ),
                )
            )
    return out


# ----------------------------------------------------------------------
# state shapes
# ----------------------------------------------------------------------
def _method(classdef: ast.ClassDef | None, name: str) -> ast.FunctionDef | None:
    if classdef is None:
        return None
    for stmt in classdef.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
            return stmt
    return None


def _state_shape(
    classdef: ast.ClassDef | None,
    functions: dict[str, ast.FunctionDef],
    getter_name: str | None,
    setter_name: str | None,
) -> tuple[str, list[str]]:
    """A registered class's state kind and its field names in wire order."""
    getter = (
        functions.get(getter_name)
        if getter_name is not None
        else _method(classdef, "__getstate__")
    )
    setter = (
        functions.get(setter_name)
        if setter_name is not None
        else _method(classdef, "__setstate__")
    )
    if getter is None:
        if setter is None and _is_slots_dataclass(classdef):
            # The declaration is the schema: one positional slot per field.
            return "struct", _declared_fields(classdef)
        # Default state: the instance dict (its schema, if any, is read
        # off __init__ at run time and guarded by a hash on the wire).
        return "dict", []
    base = _first_param(getter)
    returns = [
        r for r in ast.walk(getter) if isinstance(r, ast.Return) and r.value is not None
    ]
    tuple_returns = [r for r in returns if isinstance(r.value, ast.Tuple)]
    if not tuple_returns:
        if not returns:
            return "dict", []
        return "passthrough", [_field_name(returns[0].value, base)]
    longest = max(tuple_returns, key=lambda r: len(r.value.elts))
    return "tuple", [_field_name(elt, base) for elt in longest.value.elts]


def _callee_tail(node: ast.expr) -> str | None:
    name = dotted_name(node)
    return name.rsplit(".", 1)[-1] if name is not None else None


def _is_slots_dataclass(classdef: ast.ClassDef | None) -> bool:
    if classdef is None:
        return False
    for decorator in classdef.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and _callee_tail(decorator.func) == "dataclass"
            and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in decorator.keywords
            )
        ):
            return True
    return False


def _declared_fields(classdef: ast.ClassDef) -> list[str]:
    return [
        stmt.target.id
        for stmt in classdef.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]


def _first_param(func: ast.FunctionDef) -> str:
    args = func.args
    ordered = [*args.posonlyargs, *args.args]
    return ordered[0].arg if ordered else "self"


def _field_name(node: ast.expr, base: str) -> str:
    """The attribute a state-tuple element carries."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == base
    ):
        return node.attr
    if isinstance(node, ast.Call) and len(node.args) == 1:
        # ``list(iface.methods)`` — a converted attribute.
        return _field_name(node.args[0], base)
    if isinstance(node, ast.Name):
        return node.id
    return ast.unparse(node)


# ----------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------
def _verbs_of(symtab: SymbolTable) -> frozenset[str]:
    return frozenset(
        event.verb for func in symtab.functions for event in verb_events_of(func)
    )


# ----------------------------------------------------------------------
# spec assembly
# ----------------------------------------------------------------------
def extract_modules(modules: list["ModuleSource"]) -> WireSpec:
    """Parsed modules → the canonical spec.  On a duplicate tag or wire
    name the first module in load order wins."""
    tags: dict[str, int] = {}
    classes: dict[str, WireClass] = {}
    for module in modules:
        for name, value in _tags_of(module).items():
            tags.setdefault(name, value)
        for wire_name, wire_class in _registrations_of(module):
            classes.setdefault(wire_name, wire_class)
    return WireSpec(tags=tags, classes=classes, verbs=_verbs_of(SymbolTable.build(modules)))
