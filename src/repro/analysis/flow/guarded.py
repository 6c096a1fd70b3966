"""Guarded-state inference: which ``self.`` fields does each lock own?

The inference runs per class, over the accesses the lock walker recorded
(:class:`~repro.analysis.flow.locks.FunctionSummary.accesses`), with the
interprocedural must-held context folded in (a private helper only ever
called under the lock counts as locked):

* a field is **owned** by lock ``L`` when at least one write outside
  ``__init__``/``__post_init__`` happens with ``L`` held, and at least
  half of all such writes do — a lone locked write among many unlocked
  ones says the *lock* is the anomaly, not the field;
* once owned, every write outside the constructors must hold ``L``, and
  every read outside the constructors must too — an unlocked read of a
  lock-guarded table sees torn state on free-threaded builds and stale
  state anywhere.

Constructors are exempt because the instance is not yet shared.  Lock
attributes themselves are never treated as guarded state.  A method
declared ``@snapshot_read`` may *read* guarded fields without the lock;
the other half of that contract — no path out of it writes guarded
state — is :func:`snapshot_mutations` (OBI209).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.locks import LockAnalysis
from repro.analysis.flow.symbols import ClassInfo, FunctionInfo, SymbolTable

#: Methods that run before the instance can be shared across threads.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass
class GuardViolation:
    """One access to a lock-owned field without the lock."""

    cls: ClassInfo
    attr: str
    lock: str
    kind: str  # "read" | "write"
    func: FunctionInfo
    node: ast.AST


@dataclass
class GuardedField:
    cls: ClassInfo
    attr: str
    lock: str
    locked_writes: int
    total_writes: int


class GuardedStateAnalysis:
    """Ownership map plus the violations it implies."""

    def __init__(self, symtab: SymbolTable, locks: LockAnalysis):
        self.symtab = symtab
        self.locks = locks
        self.fields: list[GuardedField] = []
        self.violations: list[GuardViolation] = []
        for infos in symtab.classes.values():
            for cls in infos:
                if cls.lock_attrs:
                    self._analyze_class(cls)

    def _analyze_class(self, cls: ClassInfo) -> None:
        own_locks = {f"{cls.name}.{attr}" for attr in cls.lock_attrs}
        # attr → [(kind, func, node, effective-held ∩ own locks)]
        accesses: dict[str, list[tuple[str, FunctionInfo, ast.AST, frozenset[str]]]] = {}
        for func in cls.methods.values():
            summary = self.locks.summaries.get(func.key)
            if summary is None:
                continue
            for access in summary.accesses:
                if access.attr in cls.lock_attrs:
                    continue
                if access.kind == "read" and func.snapshot_read:
                    continue  # declared lock-free read (OBI209 owns writes)
                held = self.locks.effective_held(func, access.held) & own_locks
                accesses.setdefault(access.attr, []).append(
                    (access.kind, func, access.node, held)
                )
        for attr, events in accesses.items():
            outside = [
                event for event in events if event[1].name not in _CONSTRUCTORS
            ]
            writes = [event for event in outside if event[0] == "write"]
            locked_writes = [event for event in writes if event[3]]
            if not locked_writes or 2 * len(locked_writes) < len(writes):
                continue
            lock = _majority_lock(locked_writes)
            field = GuardedField(
                cls=cls,
                attr=attr,
                lock=lock,
                locked_writes=len(locked_writes),
                total_writes=len(writes),
            )
            self.fields.append(field)
            for kind, func, node, held in outside:
                if lock not in held:
                    self.violations.append(
                        GuardViolation(
                            cls=cls,
                            attr=attr,
                            lock=lock,
                            kind=kind,
                            func=func,
                            node=node,
                        )
                    )


def _majority_lock(locked_writes: list[tuple]) -> str:
    counts: dict[str, int] = {}
    for _kind, _func, _node, held in locked_writes:
        for lock in held:
            counts[lock] = counts.get(lock, 0) + 1
    return max(sorted(counts), key=lambda lock: counts[lock])


@dataclass
class SnapshotMutation:
    """A guarded-state write reachable from a declared snapshot read."""

    reader: FunctionInfo
    writer: FunctionInfo
    attr: str
    node: ast.AST
    chain: tuple[str, ...]


def snapshot_mutations(
    symtab: SymbolTable, graph: CallGraph, locks: LockAnalysis, guarded: GuardedStateAnalysis
) -> list[SnapshotMutation]:
    """Writes to guarded fields on any call path out of a ``@snapshot_read``.

    The declaration bought lock-free reads by promising read-only
    behaviour, so every function reachable from it is scanned
    (breadth-first, constructors excepted) for a write to a field some
    lock owns.
    """
    owned = {(field.cls.name, field.attr) for field in guarded.fields}
    found: list[SnapshotMutation] = []
    for reader in symtab.functions:
        if not reader.snapshot_read:
            continue
        seen = {reader.key}
        queue: list[tuple[FunctionInfo, tuple[str, ...]]] = [(reader, (reader.qualname,))]
        while queue:
            current, chain = queue.pop(0)
            summary = locks.summaries.get(current.key)
            owner = current.class_name
            if summary is not None and owner is not None:
                for access in summary.accesses:
                    if access.kind == "write" and (owner, access.attr) in owned:
                        found.append(
                            SnapshotMutation(
                                reader=reader,
                                writer=current,
                                attr=f"{owner}.{access.attr}",
                                node=access.node,
                                chain=chain,
                            )
                        )
            for site in graph.sites_of(current):
                for callee in site.callees:
                    if callee.key in seen or callee.name in _CONSTRUCTORS:
                        continue
                    seen.add(callee.key)
                    queue.append((callee, chain + (callee.qualname,)))
    return found
