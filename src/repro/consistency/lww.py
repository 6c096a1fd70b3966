"""Last-writer-wins consistency.

Every write-back carries a timestamp; the master applies a put only if it
is newer than the last applied write for that object.  Losing writes are
rejected, not merged — the classic LWW register, adequate for the paper's
"relaxed" collaborative scenarios (agendas, catalogues) where the newest
version is the right answer.

Deployment: the master site exports one :class:`LwwCoordinator`;
consumers wrap their replicas with :class:`LwwReplica`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.consistency.base import ConsistencyProtocol
from repro.core.meta import obi_id_of
from repro.core.replication import apply_put, build_put
from repro.rmi.refs import RemoteRef
from repro.util.errors import ConsistencyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packages import PutPackage
    from repro.core.runtime import Site

#: Methods exposed by a coordinator stub.
LWW_COORDINATOR_METHODS = ("try_put", "last_write_at")


class LwwCoordinator:
    """Master-side arbiter: applies only the newest write per object."""

    def __init__(self, site: "Site"):
        self._site = site
        self._last_write: dict[str, float] = {}

    def try_put(self, package: "PutPackage", timestamp: float) -> dict[str, int]:
        """Apply ``package`` if it is the newest write for all its objects.

        Returns the new versions; raises :class:`ConsistencyError` when an
        equal-or-newer write was already applied (ties reject — with one
        shared simulated clock a tie is a genuine concurrent write).
        """
        stale = [
            entry.obi_id
            for entry in package.entries
            if timestamp <= self._last_write.get(entry.obi_id, float("-inf"))
        ]
        if stale:
            raise ConsistencyError(
                f"last-writer-wins rejected write at t={timestamp}: objects "
                f"{sorted(stale)} already have newer state"
            )
        versions = apply_put(self._site, package)
        for entry in package.entries:
            self._last_write[entry.obi_id] = timestamp
        return versions

    def last_write_at(self, oid: str) -> float | None:
        return self._last_write.get(oid)

    @classmethod
    def export_on(cls, site: "Site", *, name: str = "lww-coordinator") -> "LwwCoordinator":
        """Create, export and name-bind a coordinator on ``site``."""
        coordinator = cls(site)
        ref = site.endpoint.export(coordinator, interface="ILwwCoordinator")
        site.naming.rebind(name, ref)
        return coordinator


class LwwReplica(ConsistencyProtocol):
    """Consumer-side LWW: write-backs go through the coordinator."""

    def __init__(self, site: "Site", coordinator_ref: RemoteRef | str = "lww-coordinator"):
        super().__init__(site)
        if isinstance(coordinator_ref, str):
            coordinator_ref = site.naming.lookup(coordinator_ref)
        self._coordinator = site.endpoint.stub(coordinator_ref, LWW_COORDINATOR_METHODS)
        self._coordinator_site = coordinator_ref.site_id

    def read(self, replica: object) -> object:
        return replica

    def write_back(self, replica: object) -> object:
        """Timestamped put; rejected writes surface as ConsistencyError."""
        site = self.site
        oid = obi_id_of(replica)
        package = build_put(site, [replica], self._coordinator_site)
        versions = self._coordinator.try_put(package, site.clock.now())
        site.sync_stats.add(puts_full=1)
        info = site.replica_info(oid)
        if info is not None:
            info.version = versions[oid]
        return replica
