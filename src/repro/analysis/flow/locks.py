"""Lock analysis: per-function summaries, the lock-order graph, and
interprocedural blocking-call propagation.

Every function gets one :class:`FunctionSummary` from a single walk that
tracks the set of locks held at each point (the same discipline as the
intra-module OBI104 walk, but recording events instead of judging them):

* **acquires** — each ``with <lock>:`` entry, with the locks already
  held there;
* **calls** — each call site, with the locks held around it;
* **blocking** — calls that can park the thread (network sends, socket
  reads/accepts, ``Event.wait``, ``time.sleep``);
* **accesses** — ``self.<attr>`` reads and writes, with held locks (the
  guarded-state analysis consumes these).

:class:`LockAnalysis` then propagates across the call graph:

* ``may_entry_held`` — locks that *may* be held when a function starts
  (union over call sites), feeding the lock-order graph and the
  blocking-under-lock check;
* ``must_entry_held`` — locks *provably* held on every analyzed call
  path into a private function (intersection; public functions get the
  empty set — anything may call them), feeding guarded-state inference;
* ``blocking_chain`` — for each function, a witness call chain to a
  blocking operation, if one is reachable.

Lock identity is class-qualified (``Site._lock``) or module-qualified
(``tcp.REGISTRY_LOCK``): the analyses reason about lock *roles*, not
instances.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.contract import NETWORK_SEND_METHODS
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.symbols import FunctionInfo, SymbolTable, _is_lock_factory_call
from repro.analysis.visitor import dotted_name, resolve_call_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

#: Attribute names whose call can park the calling thread.
BLOCKING_ATTRS: frozenset[str] = NETWORK_SEND_METHODS | frozenset(
    {"recv", "recv_into", "accept", "connect", "wait", "wait_for"}
)

#: Fully-qualified callables that block.
BLOCKING_DOTTED: frozenset[str] = frozenset(
    {"time.sleep", "socket.create_connection"}
)

#: Container-mutating method names (writes for guarded-state purposes).
MUTATING_METHODS: frozenset[str] = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "appendleft", "popleft",
        "sort", "reverse",
    }
)


def _looks_lock_like(tail: str) -> bool:
    """Heuristic: does this name read as a lock?"""
    lowered = tail.lower()
    return "lock" in lowered or "mutex" in lowered


@dataclass
class Acquire:
    lock: str
    held: tuple[str, ...]
    node: ast.AST


@dataclass
class LocalCall:
    node: ast.Call
    held: tuple[str, ...]


@dataclass
class Blocking:
    node: ast.AST
    what: str
    held: tuple[str, ...]


@dataclass
class Access:
    attr: str
    kind: str  # "read" | "write"
    node: ast.AST
    held: tuple[str, ...]


@dataclass
class FunctionSummary:
    func: FunctionInfo
    acquires: list[Acquire] = field(default_factory=list)
    calls: list[LocalCall] = field(default_factory=list)
    blocking: list[Blocking] = field(default_factory=list)
    accesses: list[Access] = field(default_factory=list)


# ----------------------------------------------------------------------
# per-function walk
# ----------------------------------------------------------------------
class _Walker:
    def __init__(self, symtab: SymbolTable, func: FunctionInfo):
        self.symtab = symtab
        self.func = func
        self.module = func.module
        self.summary = FunctionSummary(func=func)
        self.self_name = _self_arg(func)
        self.module_locks = _module_lock_names(symtab, func.module)
        #: Attribute/subscript nodes already folded into a composite
        #: access (a mutator call, subscript store, or augmented
        #: assignment) — the plain branches must not report them again.
        self._claimed: set[int] = set()

    def walk(self) -> FunctionSummary:
        self._visit_block(self.func.node, ())
        return self.summary

    def _visit_block(self, node: ast.AST, held: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
                continue  # runs later, outside these locks
            if isinstance(child, ast.With | ast.AsyncWith):
                acquired = []
                for item in child.items:
                    lock = self.lock_id(item.context_expr)
                    if lock is not None:
                        self.summary.acquires.append(Acquire(lock=lock, held=held, node=child))
                        acquired.append(lock)
                    else:
                        self._visit_expr(item.context_expr, held)
                self._visit_block(child, held + tuple(acquired))
                continue
            self._visit_expr(child, held)
            self._visit_block(child, held)

    def _visit_expr(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(node, ast.Call):
            self.summary.calls.append(LocalCall(node=node, held=held))
            what = self._blocking_kind(node)
            if what is not None:
                self.summary.blocking.append(Blocking(node=node, what=what, held=held))
            self._record_mutator_call(node, held)
        elif isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None and id(node) not in self._claimed:
                kind = "write" if isinstance(node.ctx, ast.Store | ast.Del) else "read"
                self.summary.accesses.append(
                    Access(attr=attr, kind=kind, node=node, held=held)
                )
        elif isinstance(node, ast.Subscript):
            if id(node) in self._claimed:
                return
            # self.x[k] = v parses as Subscript(Store) over Attribute(Load);
            # a store into a nested container, self.x[i][k] = v, writes x too.
            if isinstance(node.ctx, ast.Store | ast.Del):
                target = node.value
                if isinstance(target, ast.Subscript) and self._self_attr(target.value):
                    self._claimed.add(id(target))
                    target = target.value
                attr = self._self_attr(target)
                if attr is not None:
                    self._claimed.add(id(target))
                    self.summary.accesses.append(
                        Access(attr=attr, kind="write", node=node, held=held)
                    )
                return
            attr = self._self_attr(node.value)
            if attr is not None:
                self._claimed.add(id(node.value))
                self.summary.accesses.append(
                    Access(attr=attr, kind="read", node=node, held=held)
                )
        elif isinstance(node, ast.AugAssign):
            attr = self._self_attr(node.target)
            if attr is not None:
                self._claimed.add(id(node.target))
                self.summary.accesses.append(
                    Access(attr=attr, kind="write", node=node, held=held)
                )

    def _record_mutator_call(self, node: ast.Call, held: tuple[str, ...]) -> None:
        """``self.x.append(...)`` and friends are writes to ``self.x`` —
        including into a nested container, ``self.x[i].setdefault(...)``."""
        func_expr = node.func
        if not isinstance(func_expr, ast.Attribute):
            return
        if func_expr.attr not in MUTATING_METHODS:
            return
        receiver = func_expr.value
        attr = self._self_attr(receiver)
        if attr is not None:
            self._claimed.add(id(receiver))
            self.summary.accesses.append(
                Access(attr=attr, kind="write", node=node, held=held)
            )
            return
        if isinstance(receiver, ast.Subscript):
            attr = self._self_attr(receiver.value)
            if attr is not None:
                self._claimed.add(id(receiver))
                self._claimed.add(id(receiver.value))
                self.summary.accesses.append(
                    Access(attr=attr, kind="write", node=node, held=held)
                )

    def _self_attr(self, node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and self.self_name is not None
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def _blocking_kind(self, node: ast.Call) -> str | None:
        func_expr = node.func
        if isinstance(func_expr, ast.Attribute) and func_expr.attr in BLOCKING_ATTRS:
            return f".{func_expr.attr}()"
        resolved = resolve_call_name(func_expr, self.module.imports)
        if resolved in BLOCKING_DOTTED:
            return f"{resolved}()"
        return None

    # ------------------------------------------------------------------
    def lock_id(self, expr: ast.expr) -> str | None:
        """Class- or module-qualified identity of a lock expression."""
        name = dotted_name(expr)
        if name is None:
            return None
        parts = name.split(".")
        tail = parts[-1]
        # self._lock / self.sub._lock
        if self.self_name is not None and parts[0] == self.self_name:
            owner = self.func.class_name
            if len(parts) == 2 and owner is not None:
                for cls in self.symtab.class_named(owner):
                    if tail in cls.lock_attrs:
                        return f"{owner}.{tail}"
                if _looks_lock_like(tail):
                    return f"{owner}.{tail}"
                return None
            if len(parts) == 3 and owner is not None:
                for cls in self.symtab.class_named(owner):
                    mid_type = cls.attr_types.get(parts[1])
                    if mid_type is not None:
                        for mid_cls in self.symtab.class_named(mid_type):
                            if tail in mid_cls.lock_attrs:
                                return f"{mid_type}.{tail}"
                if _looks_lock_like(tail):
                    return f"?{self.func.qualname}.{name}"
                return None
        # module-level lock
        if len(parts) == 1:
            if tail in self.module_locks:
                return f"{_module_stem(self.module)}.{tail}"
            if _looks_lock_like(tail):
                return f"?{_module_stem(self.module)}.{tail}"
            return None
        # imported module-global: mod.LOCK
        resolved = resolve_call_name(expr, self.module.imports)
        if resolved is not None and _looks_lock_like(resolved.rsplit(".", 1)[-1]):
            return resolved
        if _looks_lock_like(tail):
            return f"?{self.func.qualname}.{name}"
        return None


def _self_arg(func: FunctionInfo) -> str | None:
    if func.class_name is None:
        return None
    args = func.node.args
    ordered = [*args.posonlyargs, *args.args]
    return ordered[0].arg if ordered else None


_MODULE_LOCKS_CACHE_KEY = "flow-module-locks"


def _module_lock_names(symtab: SymbolTable, module: "ModuleSource") -> set[str]:
    cache: dict[str, set[str]] = getattr(symtab, "_module_lock_cache", None) or {}
    if not hasattr(symtab, "_module_lock_cache"):
        symtab._module_lock_cache = cache  # type: ignore[attr-defined]
    names = cache.get(module.display_path)
    if names is None:
        names = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and _is_lock_factory_call(
                node.value, module.imports
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        cache[module.display_path] = names
    return names


def _module_stem(module: "ModuleSource") -> str:
    path = module.display_path.replace("\\", "/")
    stem = path.rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else stem


# ----------------------------------------------------------------------
# interprocedural propagation
# ----------------------------------------------------------------------
@dataclass
class OrderEdge:
    """``held`` was held while ``acquired`` was taken at ``node``."""

    held: str
    acquired: str
    func: FunctionInfo
    node: ast.AST


class LockAnalysis:
    """Summaries plus the three propagated facts (see module docstring)."""

    def __init__(self, symtab: SymbolTable, graph: CallGraph):
        self.symtab = symtab
        self.graph = graph
        self.summaries: dict[tuple[str, str], FunctionSummary] = {}
        for func in symtab.functions:
            self.summaries[func.key] = _Walker(symtab, func).walk()
        self.may_entry_held: dict[tuple[str, str], frozenset[str]] = {}
        self.must_entry_held: dict[tuple[str, str], frozenset[str]] = {}
        self.blocking_chain: dict[tuple[str, str], tuple[str, ...] | None] = {}
        self._propagate_may()
        self._propagate_must()
        self._propagate_blocking()

    # ------------------------------------------------------------------
    def _held_at_site(self, site_func: FunctionInfo, held: tuple[str, ...]) -> frozenset[str]:
        return self.may_entry_held.get(site_func.key, frozenset()) | frozenset(held)

    def _propagate_may(self) -> None:
        for func in self.symtab.functions:
            self.may_entry_held[func.key] = frozenset()
        changed = True
        while changed:
            changed = False
            for func in self.symtab.functions:
                summary = self.summaries[func.key]
                base = self.may_entry_held[func.key]
                for site in self.graph.sites_of(func):
                    local = next(
                        (c.held for c in summary.calls if c.node is site.node), ()
                    )
                    outgoing = base | frozenset(local)
                    if not outgoing:
                        continue
                    for callee in site.callees:
                        current = self.may_entry_held.get(callee.key, frozenset())
                        merged = current | outgoing
                        if merged != current:
                            self.may_entry_held[callee.key] = merged
                            changed = True

    def _propagate_must(self) -> None:
        universe = frozenset(
            acquire.lock
            for summary in self.summaries.values()
            for acquire in summary.acquires
        )
        # Public functions (and functions without analyzed callers) can be
        # entered from anywhere: nothing is provably held.
        must: dict[tuple[str, str], frozenset[str]] = {}
        for func in self.symtab.functions:
            callers = self.graph.callers_of(func)
            if not callers or not func.is_private:
                must[func.key] = frozenset()
            else:
                must[func.key] = universe
        changed = True
        while changed:
            changed = False
            for func in self.symtab.functions:
                callers = self.graph.callers_of(func)
                if not callers or not func.is_private:
                    continue
                incoming: frozenset[str] | None = None
                for site in callers:
                    caller_summary = self.summaries.get(site.caller.key)
                    local: tuple[str, ...] = ()
                    if caller_summary is not None:
                        local = next(
                            (c.held for c in caller_summary.calls if c.node is site.node),
                            (),
                        )
                    context = must.get(site.caller.key, frozenset()) | frozenset(local)
                    incoming = context if incoming is None else (incoming & context)
                new = incoming if incoming is not None else frozenset()
                if new != must[func.key]:
                    must[func.key] = new
                    changed = True
        self.must_entry_held = must

    def _propagate_blocking(self) -> None:
        chain: dict[tuple[str, str], tuple[str, ...] | None] = {}
        for func in self.symtab.functions:
            summary = self.summaries[func.key]
            direct = summary.blocking[0] if summary.blocking else None
            chain[func.key] = (
                (func.qualname, direct.what) if direct is not None else None
            )
        changed = True
        while changed:
            changed = False
            for func in self.symtab.functions:
                if chain[func.key] is not None:
                    continue
                for site in self.graph.sites_of(func):
                    for callee in site.callees:
                        callee_chain = chain.get(callee.key)
                        if callee_chain is not None:
                            chain[func.key] = (func.qualname, *callee_chain)
                            changed = True
                            break
                    if chain[func.key] is not None:
                        break
        self.blocking_chain = chain

    # ------------------------------------------------------------------
    # consumers
    # ------------------------------------------------------------------
    def order_edges(self) -> list[OrderEdge]:
        """Every (held → acquired) pair, with interprocedural context."""
        edges: list[OrderEdge] = []
        for func in self.symtab.functions:
            summary = self.summaries[func.key]
            entry = self.may_entry_held.get(func.key, frozenset())
            for acquire in summary.acquires:
                context = entry | frozenset(acquire.held)
                for held in sorted(context):
                    if held != acquire.lock:
                        edges.append(
                            OrderEdge(
                                held=held,
                                acquired=acquire.lock,
                                func=func,
                                node=acquire.node,
                            )
                        )
        return edges

    def effective_held(self, func: FunctionInfo, held: tuple[str, ...]) -> frozenset[str]:
        """Locks provably held at a point: local ``with`` nesting plus the
        must-entry context (private functions only)."""
        return frozenset(held) | self.must_entry_held.get(func.key, frozenset())
