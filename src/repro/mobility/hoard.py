"""Hoarding: replicate what you will need *before* disconnecting.

"As long as objects needed by an application (or by an agent) are
colocated, there is no need to be connected to the network."  A
:class:`Hoard` pins named object graphs locally — by default their whole
transitive closure, so no object fault can strike while offline — and can
also *prefetch* the missing closure of a partially replicated graph, one
closure demand per frontier proxy whose target is still missing (the
paper's footnote that perfect prefetching eliminates fault latency
entirely).
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
        """Bring in the whole missing closure of ``root``'s local graph.

        Walks the local graph once for the pending frontier, then resolves
        each frontier proxy-out in turn and walks on only from the replica
        it resolved to, until nothing is pending.  A proxy whose target is
        missing demands its closure through the fault path (a clustered
        proxy keeps its own scope: cluster membership is a semantic
        boundary); one whose target arrived in an earlier closure is a
        local hit.  A demanded package integrates under the proxy's own
        mode and never overwrites a replica this site already holds.
        Demands at most ``max_faults`` targets (0 = unbounded) and returns
        the number demanded.
        """
        site = self.site
        demanded = 0
        seen: dict[int, object] = {}
        frontier = deque(_pending_proxies(root, seen))
        while frontier:
            proxy = frontier.popleft()
            if proxy._obi_resolved is None:
                if site.local_object_for(proxy._obi_target_id) is None:
                    if max_faults and demanded >= max_faults:
                        break
                    demanded += 1
                site.resolve_fault(proxy, scope=_closure_scope(proxy._obi_mode))
            # else: another fault already resolved it.
            frontier.extend(_pending_proxies(proxy._obi_resolved, seen))
        return demanded

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


def _closure_scope(mode: ReplicationMode) -> ReplicationMode:
    """A per-object mode's whole closure; a cluster keeps its own scope."""
    return mode if mode.clustered else Transitive()


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
