"""Lock-discipline rules (OBI104).

Two hazards the TCP transport and the RMI endpoint are prone to:

* **lock held across a network send** — the send blocks on the link (or
  on a remote handler that may call back into this site), serializing
  the network under the lock and inviting reentrancy deadlocks;
* **inconsistent acquisition order** — module acquires lock A inside B
  in one place and B inside A in another: the classic ABBA deadlock.

A name is lock-like if it contains "lock"/"mutex" (case-insensitive) or
the module assigns it from ``threading.Lock``/``RLock``/``Condition``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.analysis.contract import NETWORK_SEND_METHODS
from repro.analysis.findings import Finding, Rule, Severity
from repro.analysis.visitor import dotted_name, resolve_call_name, self_attr_target

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import ModuleSource

_LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock", "threading.Condition"})


def _assigned_lock_names(tree: ast.Module, imports: dict[str, str]) -> set[str]:
    """Names (plain or ``self.x`` attrs) bound to a lock constructor."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign | ast.AnnAssign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        if resolve_call_name(value.func, imports) not in _LOCK_FACTORIES:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            attr = self_attr_target(target)
            if attr is not None:
                names.add(attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _lock_name(expr: ast.expr, known_locks: set[str]) -> str | None:
    """The display name of a lock-like ``with`` context expression."""
    name = dotted_name(expr)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    lowered = tail.lower()
    if "lock" in lowered or "mutex" in lowered or tail in known_locks:
        return name
    return None


class LockDisciplineRule(Rule):
    """OBI104: no sends under a lock; one global acquisition order."""

    id = "OBI104"
    name = "lock-discipline"
    severity = Severity.WARNING
    description = (
        "network send while holding a lock, or two locks acquired in "
        "opposite orders within one module"
    )
    rationale = (
        "a send can block on the link or on a remote handler calling back "
        "into this site; inconsistent lock order is an ABBA deadlock"
    )

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        known_locks = _assigned_lock_names(module.tree, module.imports)
        orders: dict[tuple[str, str], ast.With] = {}
        yield from self._walk(module, module.tree, [], known_locks, orders)

    def _walk(
        self,
        module: "ModuleSource",
        node: ast.AST,
        held: list[str],
        known_locks: set[str],
        orders: dict[tuple[str, str], ast.With],
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.With | ast.AsyncWith):
                acquired = [
                    name
                    for item in child.items
                    if (name := _lock_name(item.context_expr, known_locks)) is not None
                ]
                for name in acquired:
                    for outer in held:
                        if outer == name:
                            continue
                        orders[(outer, name)] = child
                        if (name, outer) in orders:
                            yield self.finding(
                                module,
                                child,
                                f"locks {outer!r} and {name!r} are acquired in "
                                "both orders in this module; pick one global "
                                "order to rule out ABBA deadlock",
                                severity=Severity.ERROR,
                            )
                yield from self._walk(module, child, held + acquired, known_locks, orders)
            elif isinstance(child, ast.Call) and held:
                func = child.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in NETWORK_SEND_METHODS
                ):
                    yield self.finding(
                        module,
                        child,
                        f".{func.attr}() called while holding lock "
                        f"{held[-1]!r}; move the send outside the critical "
                        "section (it can block on the link or re-enter this site)",
                    )
                yield from self._walk(module, child, held, known_locks, orders)
            elif isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda):
                # A nested function body runs later, not under the lock.
                yield from self._walk(module, child, [], known_locks, orders)
            else:
                yield from self._walk(module, child, held, known_locks, orders)
