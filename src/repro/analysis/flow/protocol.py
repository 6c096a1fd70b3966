"""Replication-protocol state machine over the call graph.

The paper's replica lifecycle is ``get``/``demand`` (acquire state) →
local use → ``put`` (write back).  The analyzer recovers the protocol
events a function performs from its RMI call sites:
``endpoint.invoke(ref, "verb", args)`` / ``invoke_async`` /
``invoke_oneway`` with a literal verb.

Two checks consume the events:

* **put-without-source** — a component (class, or module for free
  functions) that writes back with ``put`` but has no way to have
  acquired the replica: no ``get`` or ``demand`` reachable from any of
  its functions through the call graph;
* **demand-outside-fault-path** — ``demand`` is the object-fault
  protocol's verb; only the fault-resolution module may issue it, so a
  stray ``demand`` elsewhere bypasses coalescing and the stats the
  fault path maintains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.contract import PUT_FAMILY_VERBS, REPLICA_SOURCE_VERBS
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.symbols import FunctionInfo, SymbolTable

#: RMI entry points whose literal second argument is a protocol verb.
_INVOKE_METHODS = frozenset({"invoke", "invoke_async", "invoke_oneway"})

#: Verbs that acquire replica state (delegated to the contract so they
#: stay in lockstep with the runtime).
SOURCE_VERBS = REPLICA_SOURCE_VERBS

#: Module stems allowed to issue ``demand`` (the fault path itself).
FAULT_PATH_MODULES = frozenset({"faults"})


@dataclass
class VerbEvent:
    """One protocol verb issued at one call site."""

    verb: str
    func: FunctionInfo
    node: ast.AST


class ProtocolAnalysis:
    """Verb events, reachable-verb sets, and the two protocol checks."""

    def __init__(self, symtab: SymbolTable, graph: CallGraph):
        self.symtab = symtab
        self.graph = graph
        self.events: dict[tuple[str, str], list[VerbEvent]] = {
            func.key: verb_events_of(func) for func in symtab.functions
        }
        self.reachable_verbs = self._propagate_verbs()

    def _propagate_verbs(self) -> dict[tuple[str, str], frozenset[str]]:
        reachable = {
            func.key: frozenset(event.verb for event in self.events[func.key])
            for func in self.symtab.functions
        }
        changed = True
        while changed:
            changed = False
            for func in self.symtab.functions:
                merged = reachable[func.key]
                for site in self.graph.sites_of(func):
                    for callee in site.callees:
                        merged = merged | reachable.get(callee.key, frozenset())
                if merged != reachable[func.key]:
                    reachable[func.key] = merged
                    changed = True
        return reachable

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def puts_without_source(self) -> list[VerbEvent]:
        """Put-family emissions whose component never acquires replicas."""
        out: list[VerbEvent] = []
        for func in self.symtab.functions:
            for event in self.events[func.key]:
                if event.verb not in PUT_FAMILY_VERBS:
                    continue
                scope = self._component_functions(func)
                verbs: frozenset[str] = frozenset()
                for member in scope:
                    verbs = verbs | self.reachable_verbs.get(member.key, frozenset())
                if not (verbs & SOURCE_VERBS):
                    out.append(event)
        return out

    def demands_outside_fault_path(self) -> list[VerbEvent]:
        out: list[VerbEvent] = []
        for func in self.symtab.functions:
            stem = _module_stem(func)
            if stem in FAULT_PATH_MODULES:
                continue
            for event in self.events[func.key]:
                if event.verb == "demand":
                    out.append(event)
        return out

    # ------------------------------------------------------------------
    def _component_functions(self, func: FunctionInfo) -> list[FunctionInfo]:
        """The functions sharing ``func``'s protocol component: its class's
        methods, or — for a free function — its module's functions."""
        if func.class_name is not None:
            for cls in self.symtab.class_named(func.class_name):
                if cls.module is func.module:
                    return list(cls.methods.values())
        return [
            other
            for other in self.symtab.functions
            if other.module is func.module and other.class_name is None
        ]


# ----------------------------------------------------------------------
# event extraction
# ----------------------------------------------------------------------
def verb_events_of(func: FunctionInfo) -> list[VerbEvent]:
    """The protocol verbs ``func`` issues, as the analyzer sees them
    (also the wire layer's verb list)."""
    events = []
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if attr in _INVOKE_METHODS and len(node.args) >= 2:
            verb = _literal_str(node.args[1])
            if verb is not None:
                events.append(VerbEvent(verb=verb, func=func, node=node))
    return events


def _literal_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _module_stem(func: FunctionInfo) -> str:
    path = func.module.display_path.replace("\\", "/")
    stem = path.rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else stem
