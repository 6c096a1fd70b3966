"""Version vectors with conflict detection.

The strongest protocol in the library: every object carries a version
vector (site → counter).  A consumer's write-back is accepted only if its
base vector *includes* the master's current vector — otherwise the two
writes are concurrent and the coordinator reports a conflict, which the
consumer resolves with a pluggable resolver before retrying.

This is the machinery behind optimistic mobile replication (Coda/Bayou
lineage), and what the OBIWAN follow-up work on loosely-coupled mobile
transactions builds on.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.consistency.base import ConsistencyProtocol
from repro.core.meta import obi_id_of
from repro.core.replication import apply_put, build_put
from repro.rmi.refs import RemoteRef
from repro.serial.registry import global_registry
from repro.util.errors import ConsistencyError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packages import PutPackage
    from repro.core.runtime import Site

VECTOR_COORDINATOR_METHODS = ("vector_put", "vector_of", "fresh_state")


@dataclass(slots=True)
class VersionVector:
    """A classic version vector: per-site update counters."""

    counters: dict[str, int] = field(default_factory=dict)

    def __getstate__(self) -> object:
        return dict(self.counters)

    def __setstate__(self, state: object) -> None:
        self.counters = dict(state)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def bump(self, site_id: str) -> "VersionVector":
        self.counters[site_id] = self.counters.get(site_id, 0) + 1
        return self

    def copy(self) -> "VersionVector":
        return VersionVector(dict(self.counters))

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum (least upper bound)."""
        merged = dict(self.counters)
        for site_id, count in other.counters.items():
            merged[site_id] = max(merged.get(site_id, 0), count)
        return VersionVector(merged)

    def includes(self, other: "VersionVector") -> bool:
        """True iff ``self`` ≥ ``other`` pointwise (other happened-before
        or equals self)."""
        return all(
            self.counters.get(site_id, 0) >= count
            for site_id, count in other.counters.items()
        )

    def concurrent_with(self, other: "VersionVector") -> bool:
        return not self.includes(other) and not other.includes(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        mine = {k: v for k, v in self.counters.items() if v}
        theirs = {k: v for k, v in other.counters.items() if v}
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}:{v}" for k, v in sorted(self.counters.items()))
        return f"<{inner}>"


global_registry.register(VersionVector, name="consistency.VersionVector")


#: ``resolver(local_replica, fresh_master_state) -> None`` mutates the
#: local replica into the merged state before a retry.
Resolver = Callable[[object, dict], None]


class VectorCoordinator:
    """Master-side vector bookkeeping and conflict detection."""

    def __init__(self, site: "Site"):
        self._site = site
        self._vectors: dict[str, VersionVector] = {}

    def vector_of(self, oid: str) -> VersionVector:
        return self._vectors.setdefault(oid, VersionVector()).copy()

    def vector_put(
        self, package: "PutPackage", base: VersionVector, writer_site: str
    ) -> dict[str, object]:
        """Apply a put whose writer observed ``base``.

        Accepted iff ``base`` includes the master vector of every object
        in the package (no concurrent write happened since the writer's
        last read).  Raises :class:`ConsistencyError` on conflict.
        """
        conflicts = [
            entry.obi_id
            for entry in package.entries
            if not base.includes(self._vectors.setdefault(entry.obi_id, VersionVector()))
        ]
        if conflicts:
            raise ConsistencyError(
                f"concurrent update detected for {sorted(conflicts)}; "
                "pull fresh state, resolve, and retry"
            )
        versions = apply_put(self._site, package)
        merged: dict[str, VersionVector] = {}
        for entry in package.entries:
            vector = self._vectors[entry.obi_id].merge(base).bump(writer_site)
            self._vectors[entry.obi_id] = vector
            merged[entry.obi_id] = vector.copy()
        return {"versions": versions, "vectors": merged}

    def fresh_state(self, oid: str) -> dict[str, object]:
        """The master's current state dict and vector, for conflict
        resolution on the consumer side."""
        master = self._site.master_object_for(oid)
        if master is None:
            raise ConsistencyError(f"no master {oid!r} at site {self._site.name!r}")
        state = {
            key: value
            for key, value in vars(master).items()
            if not _holds_obiwan(value)
        }
        return {"state": state, "vector": self.vector_of(oid)}

    @classmethod
    def export_on(cls, site: "Site", *, name: str = "vector-coordinator") -> "VectorCoordinator":
        coordinator = cls(site)
        ref = site.endpoint.export(coordinator, interface="IVectorCoordinator")
        site.naming.rebind(name, ref)
        return coordinator


def _holds_obiwan(value: object) -> bool:
    """True if a state value contains OBIWAN references (which cannot be
    shipped through ``fresh_state``'s plain-dict channel)."""
    from repro.core.graphwalk import _scan  # local import avoids a cycle

    return next(_scan(value), None) is not None


class VectorReplica(ConsistencyProtocol):
    """Consumer-side vector protocol with resolver-driven retries."""

    def __init__(
        self,
        site: "Site",
        coordinator_ref: RemoteRef | str = "vector-coordinator",
        *,
        resolver: Resolver | None = None,
    ):
        super().__init__(site)
        if isinstance(coordinator_ref, str):
            coordinator_ref = site.naming.lookup(coordinator_ref)
        self._coordinator = site.endpoint.stub(coordinator_ref, VECTOR_COORDINATOR_METHODS)
        self._coordinator_site = coordinator_ref.site_id
        self._resolver = resolver
        self._base: dict[str, VersionVector] = {}

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def track(self, replica: object) -> object:
        """Start tracking a replica: record the master vector as base."""
        oid = obi_id_of(replica)
        self._base[oid] = self._coordinator.vector_of(oid)
        return replica

    def read(self, replica: object) -> object:
        return replica

    def write_back(self, replica: object) -> object:
        """Vector-validated put; on conflict, resolve and retry once."""
        oid = obi_id_of(replica)
        base = self._base.get(oid)
        if base is None:
            raise ConsistencyError(
                f"replica {oid!r} is not tracked; call track() after replicating"
            )
        try:
            result = self._push(replica, base)
        except ConsistencyError:
            if self._resolver is None:
                raise
            fresh = self._coordinator.fresh_state(oid)
            self._resolver(replica, fresh["state"])
            merged_base = base.merge(fresh["vector"])
            result = self._push(replica, merged_base)
        self._base[oid] = result["vectors"][oid]
        info = self.site.replica_info(oid)
        if info is not None:
            info.version = result["versions"][oid]
        return replica

    def base_vector(self, replica: object) -> VersionVector | None:
        return self._base.get(obi_id_of(replica))

    def _push(self, replica: object, base: VersionVector) -> dict:
        site = self.site
        package = build_put(site, [replica], self._coordinator_site)
        result = self._coordinator.vector_put(package, base, site.name)
        site.sync_stats.add(puts_full=1)
        return result
