"""Reconnection reconciliation.

While offline, a mobile site may have modified replicas whose masters may
themselves have moved on.  On reconnect, the :class:`Reconciler` compares
each tracked replica against its master and classifies it:

========== =============================== ============================
local      master                          action
========== =============================== ============================
clean      unchanged                       ``UP_TO_DATE`` (nothing)
clean      changed                         ``PULLED`` (refresh local)
dirty      unchanged                       ``PUSHED`` (put local state)
dirty      changed                         ``CONFLICT`` → resolver
========== =============================== ============================

Dirtiness is detected by comparing the replica's serialized state against
a baseline captured when the replica was last in sync — no write
interception needed, which keeps replicas plain objects (the property the
whole OBIWAN design leans on).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.meta import is_obiwan, obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.serial.encoder import Encoder
from repro.serial.swizzle import SwizzleDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


class ReconcileAction(enum.Enum):
    UP_TO_DATE = "up-to-date"
    PUSHED = "pushed"
    PULLED = "pulled"
    CONFLICT = "conflict"


#: ``resolver(site, replica) -> ReconcileAction`` decides a conflict's fate;
#: it must return PUSHED or PULLED after acting.
ConflictResolver = Callable[["Site", object], ReconcileAction]


def keep_local(site: "Site", replica: object) -> ReconcileAction:
    """Resolver: the offline user's changes win; overwrite the master."""
    site.put_back(replica)
    return ReconcileAction.PUSHED


def keep_master(site: "Site", replica: object) -> ReconcileAction:
    """Resolver: the master wins; discard offline changes."""
    site.refresh(replica)
    return ReconcileAction.PULLED


@dataclass
class ReconcileReport:
    """What a reconciliation pass did."""

    actions: dict[str, ReconcileAction] = field(default_factory=dict)

    def count(self, action: ReconcileAction) -> int:
        return sum(1 for a in self.actions.values() if a is action)

    @property
    def conflicts(self) -> list[str]:
        return sorted(
            oid for oid, a in self.actions.items() if a is ReconcileAction.CONFLICT
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"{a.value}={self.count(a)}" for a in ReconcileAction)
        return f"ReconcileReport({parts})"


class Reconciler:
    """Tracks baselines and reconciles on demand."""

    def __init__(self, site: "Site"):
        self.site = site
        self._baselines: dict[str, bytes] = {}
        site.events.subscribe("replica_registered", self._on_registered)
        site.events.subscribe("replica_refreshed", self._on_refreshed)

    # ------------------------------------------------------------------
    # baseline capture
    # ------------------------------------------------------------------
    def track(self, replica: object) -> object:
        """Record the replica's current state as its in-sync baseline."""
        self._baselines[obi_id_of(replica)] = self._fingerprint(replica)
        return replica

    def is_dirty(self, replica: object) -> bool:
        oid = obi_id_of(replica)
        baseline = self._baselines.get(oid)
        if baseline is None:
            return False  # never tracked → nothing to claim
        return self._fingerprint(replica) != baseline

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def reconcile(
        self, *, on_conflict: ConflictResolver | None = None
    ) -> ReconcileReport:
        """Run a full pass over tracked replicas (call when back online).

        Costs two round trips per provider *site* — one batched version
        probe, one put carrying every PUSHED replica — plus one per
        PULLED object and whatever the resolver spends on a CONFLICT.  A
        failed probe raises before anything is pushed or pulled.
        """
        site = self.site
        tracked = []
        for oid in sorted(self._baselines):
            record = site.replica_info(oid)
            if record is None or record.provider is None:
                continue  # evicted, or cluster member handled via its root
            tracked.append((oid, record))
        master_versions = site.master_versions(record for _oid, record in tracked)

        report = ReconcileReport()
        pushed = []
        for oid, record in tracked:
            replica = record.obj
            master_moved = master_versions[oid] != record.version
            dirty = self.is_dirty(replica)

            if not dirty and not master_moved:
                report.actions[oid] = ReconcileAction.UP_TO_DATE
            elif not dirty and master_moved:
                site.refresh(replica)
                self.track(replica)
                report.actions[oid] = ReconcileAction.PULLED
            elif dirty and not master_moved:
                pushed.append(replica)
                report.actions[oid] = ReconcileAction.PUSHED
            else:
                if on_conflict is None:
                    report.actions[oid] = ReconcileAction.CONFLICT
                else:
                    report.actions[oid] = on_conflict(site, replica)
                    self.track(replica)
        site.put_back_many(pushed)
        for replica in pushed:
            self.track(replica)
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fingerprint(self, replica: object) -> bytes:
        """Deterministic encoding of the replica's state.

        OBIWAN references are flattened to their logical ids, so the
        fingerprint captures the replica's own state rather than its
        neighbours' — and taking it has no side effects.
        """
        return Encoder(self.site.registry, _FingerprintSwizzler()).encode(
            dict(vars(replica))
        )

    def _on_registered(self, *, site: "Site", root: object, package: object) -> None:
        # Every object that just arrived is by definition in sync.
        oid = obi_id_of(root) if hasattr(root, "__dict__") else None
        if oid is not None and site.replica_info(oid) is not None:
            self.track(root)

    def _on_refreshed(self, *, site: "Site", replica: object) -> None:
        self.track(replica)


class _FingerprintSwizzler:
    """Flattens OBIWAN references to their ids; purely observational."""

    def swizzle(self, value: object) -> SwizzleDescriptor | None:
        if isinstance(value, ProxyOutBase):
            return SwizzleDescriptor("fingerprint.ref", value._obi_target_id)
        if is_obiwan(value):
            return SwizzleDescriptor("fingerprint.ref", obi_id_of(value))
        return None

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:  # pragma: no cover
        raise NotImplementedError("fingerprints are never decoded")
