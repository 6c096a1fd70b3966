"""Replication-protocol state machine over the call graph.

The paper's replica lifecycle is ``get``/``demand`` (acquire state) →
local use → ``updateMember`` (splice the replica into its demanders) →
``put`` (write back).  The analyzer recovers the protocol events a
function performs from its RMI call sites:

* ``endpoint.invoke(ref, "verb", args)`` / ``invoke_oneway`` with a
  literal verb;
* ``endpoint.invoke_batch(site, calls)`` where ``calls`` contains
  literal ``(ref, "verb", args)`` triples;
* a call to a function named ``splice`` or ``updateMember`` counts as
  the updateMember step (with the replica argument noted).

Three checks consume the events:

* **put-without-source** — a component (class, or module for free
  functions) that writes back with ``put`` but has no way to have
  acquired the replica: no ``get`` or ``demand`` reachable from any of
  its functions through the call graph;
* **demand-outside-fault-path** — ``demand`` is the object-fault
  protocol's verb; only the fault-resolution module may issue it, so a
  stray ``demand`` elsewhere bypasses coalescing, batching, and the
  stats the fault path maintains;
* **splice-escape** — inside a resolution function, the replica must
  not escape (be returned, or stored into an attribute) before the
  ``splice``/``updateMember`` call completes, or the application can
  observe a replica whose demanders still point at the proxy.
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


@dataclass
class SpliceCall:
    """One ``splice(proxy, replica)`` / ``updateMember`` call site."""

    func: FunctionInfo
    node: ast.Call
    replica_name: str | None


@dataclass
class EscapeBeforeSplice:
    """The replica escaped before its splice completed."""

    splice: SpliceCall
    node: ast.AST
    how: str  # "returned" | "stored"


class ProtocolAnalysis:
    """Verb events, reachable-verb sets, and the three protocol checks."""

    def __init__(self, symtab: SymbolTable, graph: CallGraph):
        self.symtab = symtab
        self.graph = graph
        self.events: dict[tuple[str, str], list[VerbEvent]] = {}
        self.splices: dict[tuple[str, str], list[SpliceCall]] = {}
        for func in symtab.functions:
            self.events[func.key] = list(_extract_events(func))
            self.splices[func.key] = list(_extract_splices(func))
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

    def escapes_before_splice(self) -> list[EscapeBeforeSplice]:
        out: list[EscapeBeforeSplice] = []
        for func in self.symtab.functions:
            for splice in self.splices[func.key]:
                if splice.replica_name is None:
                    continue
                out.extend(_find_escapes(func, splice))
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
def _extract_events(func: FunctionInfo):
    uses_batch = False
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if attr in _INVOKE_METHODS and len(node.args) >= 2:
            verb = _literal_str(node.args[1])
            if verb is not None:
                yield VerbEvent(verb=verb, func=func, node=node)
        elif attr == "invoke_batch":
            uses_batch = True
    if uses_batch:
        # The batch's call list is usually built before the invoke_batch
        # call (appends, comprehensions), so match every literal
        # ``(ref, "verb", args)`` triple in the function.  Functions that
        # never batch are exempt, which keeps acl-style string tables
        # from reading as protocol traffic.
        for triple in ast.walk(func.node):
            if (
                isinstance(triple, ast.Tuple)
                and len(triple.elts) == 3
                and (verb := _literal_str(triple.elts[1])) is not None
            ):
                yield VerbEvent(verb=verb, func=func, node=triple)


def verb_events_of(func: FunctionInfo) -> list[VerbEvent]:
    """The protocol verbs ``func`` issues, as the analyzer sees them.

    Public wrapper over event extraction for consumers outside the flow
    rules (the wire layer's spec extractor)."""
    return list(_extract_events(func))


def _extract_splices(func: FunctionInfo):
    for node in ast.walk(func.node):
        if not isinstance(node, ast.Call):
            continue
        name = (
            node.func.id
            if isinstance(node.func, ast.Name)
            else node.func.attr
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if name not in {"splice", "updateMember", "update_member"}:
            continue
        replica: str | None = None
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Name):
            replica = node.args[1].id
        yield SpliceCall(func=func, node=node, replica_name=replica)


def _find_escapes(func: FunctionInfo, splice: SpliceCall):
    """Returns / attribute stores of the replica before the splice line."""
    line = splice.node.lineno
    name = splice.replica_name
    for node in ast.walk(func.node):
        if node is splice.node or getattr(node, "lineno", line) >= line:
            continue
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            yield EscapeBeforeSplice(splice=splice, node=node, how="returned")
        elif isinstance(node, ast.Assign) and (
            isinstance(node.value, ast.Name) and node.value.id == name
        ):
            if any(isinstance(target, ast.Attribute) for target in node.targets):
                yield EscapeBeforeSplice(splice=splice, node=node, how="stored")


def _literal_str(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _module_stem(func: FunctionInfo) -> str:
    path = func.module.display_path.replace("\\", "/")
    stem = path.rsplit("/", 1)[-1]
    return stem[:-3] if stem.endswith(".py") else stem
