"""The flow rules: OBI202–OBI205, OBI209 and OBI210.

Each rule is a thin adapter from one flow analysis to findings — the
heavy lifting lives in :mod:`~repro.analysis.flow.locks`,
:mod:`~repro.analysis.flow.guarded` and
:mod:`~repro.analysis.flow.protocol`, shared through the per-run
:class:`~repro.analysis.flow.project.Project`.

All six are warnings: interprocedural facts rest on a conservative call
graph, so a finding is a strong signal but not a proof the way the
per-module errors are.  CI runs ``--strict``, where warnings fail too;
a deliberate exception carries a justified suppression.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.contract import FEED_APPLY_CALLEES
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.flow.project import Project

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource


class _FlowRule(Rule):
    severity = Severity.WARNING

    def check_project(
        self, modules: list["ModuleSource"], cache: dict
    ) -> Iterator[Finding]:
        return self.check_flow(Project.of(modules, cache))

    def check_flow(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


class BlockingUnderLockRule(_FlowRule):
    """OBI202: a call made under a lock transitively reaches a blocking op."""

    id = "OBI202"
    name = "blocking-under-lock"
    description = "a function called while holding a lock can block on the network"
    rationale = (
        "The lock is held here, the sendall is three calls away.  Holding a lock across a network round trip "
        "stalls every thread that needs the lock for the round-trip time."
    )

    def check_flow(self, project: Project) -> Iterator[Finding]:
        locks = project.locks
        for func in project.symtab.functions:
            summary = locks.summaries[func.key]
            for site in project.graph.sites_of(func):
                held = next(
                    (c.held for c in summary.calls if c.node is site.node), ()
                )
                if not held:
                    continue
                for callee in site.callees:
                    chain = locks.blocking_chain.get(callee.key)
                    if chain is None:
                        continue
                    path = " -> ".join(chain)
                    yield self.finding(
                        func.module,
                        site.node,
                        f"call to {callee.qualname}() while holding "
                        f"{', '.join(sorted(held))} can block: {path}",
                    )
                    break


class UnguardedStateRule(_FlowRule):
    """OBI203: a lock-owned field accessed without its lock."""

    id = "OBI203"
    name = "unguarded-state"
    description = "a field written under a lock elsewhere is accessed without it"
    rationale = (
        "If Site._replicas is maintained under Site._lock, an unlocked "
        "pop or read races with every locked writer: lost updates, "
        "phantom replicas, and iteration over a dict mid-resize."
    )

    def check_flow(self, project: Project) -> Iterator[Finding]:
        for violation in project.guarded.violations:
            verb = "written" if violation.kind == "write" else "read"
            yield self.finding(
                violation.func.module,
                violation.node,
                f"{violation.cls.name}.{violation.attr} is guarded by "
                f"{violation.lock} but {verb} without it in "
                f"{violation.func.qualname}()",
            )


class PutWithoutSourceRule(_FlowRule):
    """OBI204: a component writes back replicas it never acquired."""

    id = "OBI204"
    name = "put-without-source"
    description = "'put' issued by a component with no reachable get/demand"
    rationale = (
        "The protocol's put pushes a replica's diff against the version "
        "its get/demand recorded; a component that puts without any "
        "acquisition path is writing back state of unknown provenance."
    )

    def check_flow(self, project: Project) -> Iterator[Finding]:
        for event in project.protocol.puts_without_source():
            scope = (
                event.func.class_name
                if event.func.class_name is not None
                else f"module {event.func.module.display_path}"
            )
            yield self.finding(
                event.func.module,
                event.node,
                f"'put' in {event.func.qualname}() but no 'get' or 'demand' "
                f"is reachable from {scope} — nothing here ever acquired "
                "the replica being written back",
            )


class DemandOutsideFaultPathRule(_FlowRule):
    """OBI205: a 'demand' issued outside the fault-resolution module."""

    id = "OBI205"
    name = "demand-outside-fault-path"
    description = "'demand' issued outside the object-fault path"
    rationale = (
        "demand is the fault path's verb: faults.py coalesces concurrent "
        "demands, integrates each package under the proxy's mode, and counts "
        "stats.  A demand issued elsewhere bypasses all three — duplicate "
        "round trips under concurrency and stats that silently undercount."
    )

    def check_flow(self, project: Project) -> Iterator[Finding]:
        for event in project.protocol.demands_outside_fault_path():
            yield self.finding(
                event.func.module,
                event.node,
                f"'demand' issued from {event.func.qualname}() — outside the "
                "fault path; route object faults through "
                "repro.core.faults.resolve_fault so they coalesce",
            )


class SnapshotReadMutationRule(_FlowRule):
    """OBI209: a declared snapshot read reaches a guarded-state write."""

    id = "OBI209"
    name = "snapshot-read-mutation"
    description = "a @snapshot_read path mutates lock-guarded state"
    rationale = (
        "@snapshot_read buys lock-free reads by promising read-only "
        "behaviour; a write on any path out of one runs unsynchronized "
        "against every locked writer — the declaration exempted exactly "
        "the discipline that would have caught it."
    )

    def check_flow(self, project: Project) -> Iterator[Finding]:
        for mutation in project.snapshot_mutations:
            path = " -> ".join(mutation.chain)
            yield self.finding(
                mutation.writer.module,
                mutation.node,
                f"{mutation.attr} is written on a path out of snapshot read "
                f"{mutation.reader.qualname}(): {path} — declared lock-free "
                "reads must not mutate guarded state",
            )


class FeedApplyEpochGuardRule(_FlowRule):
    """OBI210: a feed frame applied with no epoch comparison before it."""

    id = "OBI210"
    name = "feed-apply-outside-epoch-check"
    description = "apply_feed_frame called without an epoch comparison earlier in the function"
    rationale = (
        "After a failover the deposed primary may still be pushing frames "
        "stamped with the old epoch; applying one without first comparing "
        "epochs is a split-brain write that silently diverges the mirror "
        "from the group the moment both primaries touch the same object."
    )

    def check_flow(self, project: Project) -> Iterator[Finding]:
        for func in project.symtab.functions:
            applies = [
                node
                for node in ast.walk(func.node)
                if isinstance(node, ast.Call)
                and _callee_tail(node.func) in FEED_APPLY_CALLEES
            ]
            if not applies:
                continue
            guard_lines = [
                node.lineno
                for node in ast.walk(func.node)
                if isinstance(node, ast.Compare) and _compares_epoch(node)
            ]
            for call in applies:
                if any(line <= call.lineno for line in guard_lines):
                    continue
                yield self.finding(
                    func.module,
                    call,
                    f"{_callee_tail(call.func)}() in {func.qualname}() applies "
                    "a feed frame with no epoch comparison before it — check "
                    "the frame's epoch against the local epoch first so a "
                    "deposed primary's pushes are rejected, not applied",
                )


def _callee_tail(func: ast.expr) -> str | None:
    """The last component of a call target: ``f`` for ``a.b.f(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _compares_epoch(compare: ast.Compare) -> bool:
    """Does this comparison mention an epoch on either side?"""
    for node in ast.walk(compare):
        if isinstance(node, ast.Name) and node.id.lower().endswith("epoch"):
            return True
        if isinstance(node, ast.Attribute) and node.attr.lower().endswith("epoch"):
            return True
    return False
