"""Epidemic update dissemination.

The push counterpart of invalidation: when a put is applied, the master
builds a fresh one-object replica package and *casts* it to every
subscribed holder, which integrates it immediately.  Holders therefore
converge without polling — the paper's "updates dissemination" hook.

Compared to invalidation this trades bandwidth (full state pushed) for
read latency (holders are always fresh); the ablation benchmark
``ablate-consistency`` quantifies the trade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consistency.base import ConsistencyProtocol
from repro.core.interfaces import Incremental
from repro.core.meta import obi_id_of
from repro.core.replication import build_package, integrate_package
from repro.rmi.refs import RemoteRef
from repro.util.errors import TransportError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packages import ReplicaPackage
    from repro.core.runtime import Site

DISSEMINATOR_METHODS = ("subscribe", "unsubscribe", "subscriber_count")
SUBSCRIBER_METHODS = ("apply_update",)


class UpdateDisseminator:
    """Master-side: push fresh state to subscribers after every put."""

    def __init__(self, site: "Site"):
        self._site = site
        #: oid → {site_id → subscriber listener ref}
        self._subscribers: dict[str, dict[str, RemoteRef]] = {}
        site.events.subscribe("put_applied", self._on_put_applied)

    # ------------------------------------------------------------------
    # remote surface
    # ------------------------------------------------------------------
    def subscribe(self, oid: str, listener: RemoteRef) -> None:
        self._subscribers.setdefault(oid, {})[listener.site_id] = listener

    def unsubscribe(self, oid: str, site_id: str) -> None:
        self._subscribers.get(oid, {}).pop(site_id, None)

    def subscriber_count(self, oid: str) -> int:
        return len(self._subscribers.get(oid, {}))

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def _on_put_applied(self, *, site: "Site", oid: str, version: int) -> None:
        listeners = list(self._subscribers.get(oid, {}).values())
        if not listeners:
            return
        master = self._site.master_object_for(oid)
        if master is None:
            return
        package = build_package(self._site, master, Incremental(1))
        for listener in listeners:
            try:
                self._site.endpoint.invoke_oneway(listener, "apply_update", (package,))
            except TransportError:
                continue  # offline subscriber converges on reconnect

    @classmethod
    def export_on(cls, site: "Site", *, name: str = "update-disseminator") -> "UpdateDisseminator":
        disseminator = cls(site)
        ref = site.endpoint.export(disseminator, interface="IUpdateDisseminator")
        site.naming.rebind(name, ref)
        return disseminator


class UpdateSubscriber(ConsistencyProtocol):
    """Consumer side: integrates pushed updates as they arrive."""

    def __init__(self, site: "Site", disseminator_ref: RemoteRef | str = "update-disseminator"):
        super().__init__(site)
        if isinstance(disseminator_ref, str):
            disseminator_ref = site.naming.lookup(disseminator_ref)
        self._disseminator = site.endpoint.stub(disseminator_ref, DISSEMINATOR_METHODS)
        #: The disseminator's site masters every object it pushes.
        self._provider_site = disseminator_ref.site_id
        self._listener_ref = site.endpoint.export(self, interface="IUpdateSubscriber")
        self.updates_received = 0

    # ------------------------------------------------------------------
    # remote surface (called by the disseminator, one-way)
    # ------------------------------------------------------------------
    def apply_update(self, package: "ReplicaPackage") -> None:
        # The disseminator builds every update with exactly this mode.
        integrate_package(self.site, package, Incremental(1), self._provider_site)
        self.updates_received += 1

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def track(self, replica: object) -> object:
        self._disseminator.subscribe(obi_id_of(replica), self._listener_ref)
        return replica

    def read(self, replica: object) -> object:
        return replica  # pushed updates keep it fresh

    def write_back(self, replica: object) -> object:
        version = self.site.put_back(replica)
        info = self.site.replica_info(obi_id_of(replica))
        if info is not None:
            info.version = version
        return replica
