"""One :class:`Project` per engine run: the shared flow artifacts.

Building the symbol table, call graph, and analyses is the expensive part
of the flow layer, and every OBI2xx rule needs the same ones.  The engine
hands project rules a per-run ``cache`` dict; :meth:`Project.of` keeps a
single lazily-built Project there, keyed on the module list identity so a
stale Project from a previous run can never leak in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.guarded import (
    GuardedStateAnalysis,
    SnapshotMutation,
    snapshot_mutations,
)
from repro.analysis.flow.locks import LockAnalysis
from repro.analysis.flow.protocol import ProtocolAnalysis
from repro.analysis.flow.symbols import SymbolTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

_CACHE_KEY = "flow-project"


class Project:
    """Lazily-built whole-program view of one analysis run."""

    def __init__(self, modules: list["ModuleSource"]):
        self.modules = modules
        self._symtab: SymbolTable | None = None
        self._graph: CallGraph | None = None
        self._locks: LockAnalysis | None = None
        self._guarded: GuardedStateAnalysis | None = None
        self._protocol: ProtocolAnalysis | None = None
        self._snapshot_mutations: list[SnapshotMutation] | None = None

    @classmethod
    def of(cls, modules: list["ModuleSource"], cache: dict) -> "Project":
        project = cache.get(_CACHE_KEY)
        if project is None or project.modules is not modules:
            project = cls(modules)
            cache[_CACHE_KEY] = project
        return project

    @property
    def symtab(self) -> SymbolTable:
        if self._symtab is None:
            self._symtab = SymbolTable.build(self.modules)
        return self._symtab

    @property
    def graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph.build(self.symtab)
        return self._graph

    @property
    def locks(self) -> LockAnalysis:
        if self._locks is None:
            self._locks = LockAnalysis(self.symtab, self.graph)
        return self._locks

    @property
    def guarded(self) -> GuardedStateAnalysis:
        if self._guarded is None:
            self._guarded = GuardedStateAnalysis(self.symtab, self.locks)
        return self._guarded

    @property
    def protocol(self) -> ProtocolAnalysis:
        if self._protocol is None:
            self._protocol = ProtocolAnalysis(self.symtab, self.graph)
        return self._protocol

    @property
    def snapshot_mutations(self) -> list[SnapshotMutation]:
        if self._snapshot_mutations is None:
            self._snapshot_mutations = snapshot_mutations(
                self.symtab, self.graph, self.locks, self.guarded
            )
        return self._snapshot_mutations
