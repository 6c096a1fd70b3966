"""The mobile-node facade: one object for the whole mobility story.

Bundles connectivity control, hoarding, fallback invocation and
reconciliation around a single site — the programming surface of the
paper's info-appliance scenario::

    node = MobileNode(pda_site)
    agenda = node.hoard("agenda")            # replicate before the taxi
    node.go_offline(voluntary=True)
    agenda.add("buy milk")                   # LMI, no network
    node.go_online()                         # reconcile automatically
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.interfaces import ReplicationMode
from repro.mobility.connectivity import ConnectivityManager
from repro.mobility.hoard import Hoard
from repro.mobility.offline import FallbackInvoker, InvocationResult
from repro.mobility.reconcile import ConflictResolver, Reconciler, ReconcileReport
from repro.mobility.transactions import MobileTransaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


class MobileNode:
    """A site plus its mobility machinery."""

    def __init__(self, site: "Site"):
        self.site = site
        self.connectivity = ConnectivityManager(site)
        self.hoard_store = Hoard(site)
        self.invoker = FallbackInvoker(site)
        self.reconciler = Reconciler(site)

    # ------------------------------------------------------------------
    # hoarding
    # ------------------------------------------------------------------
    def hoard(self, name: str, mode: ReplicationMode | None = None) -> object:
        """Replicate-and-pin ``name`` for offline use; baseline-tracked."""
        replica = self.hoard_store.hoard(name, mode)
        self.reconciler.track(replica)
        return replica

    def prefetch(self, root: object) -> int:
        """Bring in the missing closure under ``root`` while still online;
        returns the number of demands (see :meth:`Hoard.prefetch`)."""
        return self.hoard_store.prefetch(root)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def go_offline(self, *, voluntary: bool = False) -> None:
        self.connectivity.go_offline(voluntary=voluntary)

    def go_online(
        self, *, reconcile: bool = True, on_conflict: ConflictResolver | None = None
    ) -> ReconcileReport | None:
        """Reconnect and (by default) reconcile offline modifications."""
        self.connectivity.go_online()
        if reconcile:
            return self.reconciler.reconcile(on_conflict=on_conflict)
        return None

    @property
    def is_online(self) -> bool:
        return self.connectivity.is_online

    # ------------------------------------------------------------------
    # invocation & transactions
    # ------------------------------------------------------------------
    def call(self, name: str, method: str, *args: object, **kwargs: object) -> InvocationResult:
        """RMI with replica fallback (see :class:`FallbackInvoker`).

        The hoard is the fallback source: a hoarded replica under the
        same name serves the call when the master is unreachable.
        """
        return self.invoker.call(
            name, method, *args, replica=self.hoard_store.get(name), **kwargs
        )

    def transaction(self) -> MobileTransaction:
        """Begin a relaxed transaction over this node's replicas."""
        return MobileTransaction(self.site)

    def __repr__(self) -> str:
        status = "online" if self.is_online else "offline"
        return f"MobileNode({self.site.name!r}, {status}, hoarded={len(self.hoard_store)})"
