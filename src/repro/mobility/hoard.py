"""Hoarding: replicate what you will need *before* disconnecting.

"As long as objects needed by an application (or by an agent) are
colocated, there is no need to be connected to the network."  A
:class:`Hoard` pins named object graphs locally — by default their whole
transitive closure, so no object fault can strike while offline — and can
also *prefetch* the pending proxy-outs of an existing replica graph (the
paper's footnote that perfect background prefetching eliminates fault
latency entirely).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.core import graphwalk
from repro.core.interfaces import ReplicationMode, Transitive
from repro.core.proxy_out import ProxyOutBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


class Hoard:
    """A pinned set of replicas for disconnected operation."""

    def __init__(self, site: "Site"):
        self.site = site
        self._pinned: dict[str, object] = {}

    # ------------------------------------------------------------------
    # filling the hoard
    # ------------------------------------------------------------------
    def hoard(
        self,
        name: str,
        mode: ReplicationMode | None = None,
    ) -> object:
        """Replicate and pin the graph bound to ``name``.

        The default mode is the transitive closure: hoarding exists to
        guarantee offline completeness, and a partial hoard would fault —
        and fail — mid-disconnection.
        """
        replica = self.site.replicate(name, mode=mode if mode is not None else Transitive())
        self._pinned[name] = replica
        return replica

    def prefetch(self, root: object, *, max_faults: int = 0) -> int:
        """Resolve pending proxy-outs reachable from ``root`` eagerly.

        Walks the local graph once for the pending frontier, then demands
        each frontier proxy-out and walks on only from the replica it
        resolved to — every object is visited once, however many faults
        it takes — until none remain (or ``max_faults`` were resolved;
        0 = unbounded).  Returns the number of faults resolved.
        """
        resolved = 0
        seen: dict[int, object] = {}
        frontier = deque(_pending_proxies(root, seen))
        while frontier:
            proxy = frontier.popleft()
            if proxy._obi_resolved is None:
                if max_faults and resolved >= max_faults:
                    break
                self.site.resolve_fault(proxy)
                resolved += 1
            # else: a sibling or coalesced demand already brought it in.
            frontier.extend(_pending_proxies(proxy._obi_resolved, seen))
        return resolved

    # ------------------------------------------------------------------
    # using the hoard
    # ------------------------------------------------------------------
    def get(self, name: str) -> object | None:
        """The pinned replica for ``name``, if hoarded."""
        return self._pinned.get(name)

    def unpin(self, name: str) -> None:
        self._pinned.pop(name, None)

    def names(self) -> list[str]:
        return sorted(self._pinned)

    def is_complete(self, name: str) -> bool:
        """True iff the hoarded graph has no unresolved faults left —
        i.e. it is safe to go offline and traverse all of it."""
        replica = self._pinned.get(name)
        if replica is None:
            return False
        return not _pending_proxies(replica, {})

    def __contains__(self, name: str) -> bool:
        return name in self._pinned

    def __len__(self) -> int:
        return len(self._pinned)


def _pending_proxies(root: object, seen: dict[int, object]) -> list[ProxyOutBase]:
    """Unresolved proxy-outs reachable from ``root`` through local objects
    not yet in ``seen`` — the nodes already walked, by id.  ``seen`` holds
    the nodes themselves so that a spliced-out proxy cannot be collected
    between walks and lend its id to an object that was never visited."""
    pending: list[ProxyOutBase] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        if isinstance(node, ProxyOutBase):
            if node._obi_resolved is None:
                pending.append(node)
            else:
                stack.append(node._obi_resolved)
            continue
        stack.extend(graphwalk.direct_references(node))
    return pending
