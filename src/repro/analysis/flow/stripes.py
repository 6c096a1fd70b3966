"""Stripe-ownership analysis: the lock-family facts behind OBI207–209.

The single-lock analyses treat ``Site._lock`` as one identity.  A
striped runtime replaces it with a lock *family* — an array of locks
keyed by an oid-hash index — and partitions its tables the same way
(:mod:`repro.core.striping`).  The lock walker already produces the raw
material: family acquisitions carry key-qualified identities
(``Site._stripe_locks[idx]``), striped-table accesses carry their
canonical subscript key, and ``@snapshot_read`` declarations mark the
lock-free read paths.  This analysis judges three disciplines over it:

* **key mismatches** (OBI207) — an access to a stripe-partitioned table
  must hold a member of the owning family derived from the *same* key
  expression; holding stripe ``i`` while touching stripe ``j``'s shard
  is as unguarded as holding nothing;
* **order violations** (OBI208) — taking a second member of one family
  must ascend by stripe index.  Two proofs are accepted: the key is the
  loop variable of an ascending ``for k in range/sorted(...)`` loop, or
  both keys come from one ``lo, hi = sorted((i, j))`` unpack and the
  held key ranks lower;
* **snapshot mutations** (OBI209) — no path out of a declared
  ``@snapshot_read`` may write guarded state: the declaration bought
  lock-free reads precisely by promising read-only behaviour.

Key matching is textual and frame-local (see ``_Walker._canon_key``):
a helper that receives a stripe index under a different parameter name
than its caller used will not match.  The runtime convention — call the
index ``idx`` everywhere — keeps the analysis precise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.guarded import _CONSTRUCTORS, GuardedStateAnalysis
from repro.analysis.flow.locks import FunctionSummary, LockAnalysis
from repro.analysis.flow.symbols import ClassInfo, FunctionInfo, SymbolTable

#: ``Cls.attr[key]`` — the key-qualified identity a family member gets.
_FAMILY_ID = re.compile(r"^(?P<cls>[^.\[?]+)\.(?P<attr>[^.\[]+)\[(?P<key>.*)\]$")


def family_of(lock_id: str) -> tuple[str, str] | None:
    """``("Cls.attr", key)`` when ``lock_id`` names a family member."""
    match = _FAMILY_ID.match(lock_id)
    if match is None:
        return None
    return f"{match['cls']}.{match['attr']}", match["key"]


@dataclass
class KeyMismatch:
    """A striped-table access whose held family keys miss its own key."""

    cls: ClassInfo
    attr: str
    family: str  # "Site._stripe_locks"
    func: FunctionInfo
    node: ast.AST
    key: str | None  # access key; None for a whole-table (bare) access
    held_keys: tuple[str, ...]


@dataclass
class OrderViolation:
    """A second family member taken without an ascending-index proof."""

    func: FunctionInfo
    node: ast.AST
    family: str
    held_key: str
    acquired_key: str


@dataclass
class SnapshotMutation:
    """A guarded-state write reachable from a declared snapshot read."""

    reader: FunctionInfo
    writer: FunctionInfo
    attr: str
    node: ast.AST
    chain: tuple[str, ...]


class StripeAnalysis:
    """The three stripe-discipline fact lists (see module docstring)."""

    def __init__(
        self,
        symtab: SymbolTable,
        graph: CallGraph,
        locks: LockAnalysis,
        guarded: GuardedStateAnalysis,
    ):
        self.symtab = symtab
        self.graph = graph
        self.locks = locks
        self.guarded = guarded
        self.key_mismatches: list[KeyMismatch] = []
        self.order_violations: list[OrderViolation] = []
        self.snapshot_mutations: list[SnapshotMutation] = []
        self._check_key_discipline()
        self._check_order_discipline()
        self._check_snapshot_mutations()

    # ------------------------------------------------------------------
    # OBI207: stripe-key matching
    # ------------------------------------------------------------------
    def _check_key_discipline(self) -> None:
        for infos in self.symtab.classes.values():
            for cls in infos:
                if cls.lock_families and cls.stripe_tables:
                    self._check_class_keys(cls)

    def _check_class_keys(self, cls: ClassInfo) -> None:
        families = {f"{cls.name}.{fam}" for fam in sorted(cls.lock_families)}
        family_label = ", ".join(sorted(families))
        for func in cls.methods.values():
            if func.name in _CONSTRUCTORS:
                continue
            summary = self.locks.summaries.get(func.key)
            if summary is None:
                continue
            for access in summary.accesses:
                if access.attr not in cls.stripe_tables:
                    continue
                if access.kind == "read" and func.snapshot_read:
                    continue
                held_keys: set[str] = set()
                for lock in self.locks.effective_held(func, access.held):
                    member = family_of(lock)
                    if member is not None and member[0] in families:
                        held_keys.add(member[1])
                if access.subscript_key is None:
                    # Whole-table access (rebinding, len, iteration …):
                    # flagged only when no family member is held at all.
                    if not held_keys:
                        self.key_mismatches.append(
                            KeyMismatch(
                                cls=cls,
                                attr=access.attr,
                                family=family_label,
                                func=func,
                                node=access.node,
                                key=None,
                                held_keys=(),
                            )
                        )
                    continue
                if access.subscript_key not in held_keys:
                    self.key_mismatches.append(
                        KeyMismatch(
                            cls=cls,
                            attr=access.attr,
                            family=family_label,
                            func=func,
                            node=access.node,
                            key=access.subscript_key,
                            held_keys=tuple(sorted(held_keys)),
                        )
                    )

    # ------------------------------------------------------------------
    # OBI208: ascending acquisition order within a family
    # ------------------------------------------------------------------
    def _check_order_discipline(self) -> None:
        for func in self.symtab.functions:
            summary = self.locks.summaries.get(func.key)
            if summary is None:
                continue
            entry = self.locks.may_entry_held.get(func.key, frozenset())
            for acquire in summary.acquires:
                acquired = family_of(acquire.lock)
                if acquired is None:
                    continue
                family, acquired_key = acquired
                for lock in frozenset(acquire.held) | entry:
                    held = family_of(lock)
                    if held is None or held[0] != family:
                        continue
                    held_key = held[1]
                    if held_key == acquired_key:
                        continue  # reentrant re-acquire of the same stripe
                    if acquire.ordered:
                        continue  # ascending loop index
                    if _rank_proven(summary, held_key, acquired_key):
                        continue  # lo/hi from one sorted() unpack
                    self.order_violations.append(
                        OrderViolation(
                            func=func,
                            node=acquire.node,
                            family=family,
                            held_key=held_key,
                            acquired_key=acquired_key,
                        )
                    )

    # ------------------------------------------------------------------
    # OBI209: snapshot reads must not mutate guarded state
    # ------------------------------------------------------------------
    def _check_snapshot_mutations(self) -> None:
        guarded_fields = {
            (field.cls.name, field.attr) for field in self.guarded.fields
        }
        protected: dict[str, set[str]] = {}
        for infos in self.symtab.classes.values():
            for cls in infos:
                if cls.lock_families or cls.stripe_tables:
                    protected.setdefault(cls.name, set()).update(
                        cls.lock_families | cls.stripe_tables
                    )
        for func in self.symtab.functions:
            if func.snapshot_read:
                self._scan_reader(func, guarded_fields, protected)

    def _scan_reader(
        self,
        reader: FunctionInfo,
        guarded_fields: set[tuple[str, str]],
        protected: dict[str, set[str]],
    ) -> None:
        seen = {reader.key}
        queue: list[tuple[FunctionInfo, tuple[str, ...]]] = [
            (reader, (reader.qualname,))
        ]
        while queue:
            current, chain = queue.pop(0)
            summary = self.locks.summaries.get(current.key)
            if summary is not None:
                for access in summary.accesses:
                    if access.kind != "write":
                        continue
                    owner = current.class_name
                    if owner is None:
                        continue
                    if (owner, access.attr) in guarded_fields or access.attr in protected.get(
                        owner, ()
                    ):
                        self.snapshot_mutations.append(
                            SnapshotMutation(
                                reader=reader,
                                writer=current,
                                attr=f"{owner}.{access.attr}",
                                node=access.node,
                                chain=chain,
                            )
                        )
            for site in self.graph.sites_of(current):
                for callee in site.callees:
                    if callee.key in seen or callee.name in _CONSTRUCTORS:
                        continue
                    seen.add(callee.key)
                    queue.append((callee, chain + (callee.qualname,)))


def _rank_proven(summary: FunctionSummary, held_key: str, acquired_key: str) -> bool:
    """Both keys ranked by one ``sorted()`` unpack, held before acquired."""
    held_rank = summary.sorted_ranks.get(held_key)
    acquired_rank = summary.sorted_ranks.get(acquired_key)
    return (
        held_rank is not None
        and acquired_rank is not None
        and held_rank[0] == acquired_rank[0]
        and held_rank[1] < acquired_rank[1]
    )
