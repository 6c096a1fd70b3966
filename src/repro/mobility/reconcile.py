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

Dirtiness is detected by comparing a snapshot of the replica's own
attributes against the snapshot taken when the replica was last in sync —
no write interception needed, which keeps replicas plain objects (the
property the whole OBIWAN design leans on).  A snapshot is a tuple, not
serialised state: plain values are kept as they are, floats by their IEEE
bits, OBIWAN references by the oid they name, and only containers and
other values are digested (:meth:`Fingerprinter.of_value`).  Two
snapshots differ exactly when the encodings of the two states would.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.meta import is_obiwan, obi_id_of
from repro.core.proxy_out import ProxyOutBase

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


#: Values a snapshot keeps as they are: immutable, and equal exactly when
#: their encodings are (the type rides along, so ``1`` is not ``True``).
_PLAIN = frozenset({int, bool, str, bytes, type(None)})
_F64 = struct.Struct("!d").pack


class Reconciler:
    """Tracks baselines and reconciles on demand."""

    def __init__(self, site: "Site"):
        self.site = site
        self._baselines: dict[str, tuple] = {}
        site.events.subscribe("replica_registered", self._on_registered)
        site.events.subscribe("replica_refreshed", self._on_refreshed)

    # ------------------------------------------------------------------
    # baseline capture
    # ------------------------------------------------------------------
    def track(self, replica: object) -> object:
        """Record the replica's current state as its in-sync baseline."""
        self._baselines[obi_id_of(replica)] = self._snapshot(replica)
        return replica

    def is_dirty(self, replica: object) -> bool:
        oid = obi_id_of(replica)
        baseline = self._baselines.get(oid)
        if baseline is None:
            return False  # never tracked → nothing to claim
        return self._snapshot(replica) != baseline

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def reconcile(
        self, *, on_conflict: ConflictResolver | None = None
    ) -> ReconcileReport:
        """Run a full pass over tracked replicas (call when back online).

        Costs two round trips per provider *site* — one version probe
        carrying every tracked oid, one put carrying every PUSHED replica
        — plus one per PULLED object and whatever the resolver spends on a
        CONFLICT.  A failed probe raises before anything is pushed or
        pulled.  Baselines of evicted replicas are dropped.
        """
        site = self.site
        tracked = []
        for oid in sorted(self._baselines):
            record = site.replica_info(oid)
            if record is None:
                del self._baselines[oid]  # evicted: nothing left to reconcile
            elif record.provider is not None:
                tracked.append((oid, record))
            # else: a cluster member, handled via its root
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
                site.refresh(replica)  # re-tracked through replica_refreshed
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
    def _snapshot(self, replica: object) -> tuple:
        """The replica's own state, as a comparable tuple.

        One entry per attribute, in attribute order.  Every other value —
        an OBIWAN reference or a container — contributes its name, and all
        of them together one trailing key (:meth:`_node_key`).
        """
        entries: list = []
        nodes: list = []
        for name, value in vars(replica).items():
            kind = type(value)
            if kind in _PLAIN:
                entries.append((name, kind, value))
            elif kind is float:
                entries.append((name, float, _F64(value)))
            else:
                entries.append(name)
                nodes.append(value)
        if nodes:
            entries.append(self._node_key(nodes))
        return tuple(entries)

    def _node_key(self, nodes: list) -> tuple | str:
        """Identity of the attribute values that are not plain.

        When all of them are OBIWAN references, a tuple naming each by its
        oid — or, for a reference repeated across attributes, by the slot
        of its first occurrence — so a proxy-out and the replica it
        resolved to compare equal.  Otherwise one digest of all of them
        together, references collapsed to their oids, which also sees
        containers mutated in place and aliasing across attributes.
        """
        key: list = []
        slots: dict[int, int] = {}
        for node in nodes:
            if isinstance(node, ProxyOutBase):
                oid = node._obi_target_id
            elif is_obiwan(node):
                oid = obi_id_of(node)
            else:
                return self.site.fingerprinter.of_value(nodes)
            slot = slots.get(id(node))
            if slot is None:
                slots[id(node)] = len(slots)
                key.append(oid)
            else:
                key.append(slot)
        return tuple(key)

    def _on_registered(self, *, site: "Site", root: object, package: object) -> None:
        # Every object that just arrived is by definition in sync.
        oid = obi_id_of(root) if hasattr(root, "__dict__") else None
        if oid is not None and site.replica_info(oid) is not None:
            self.track(root)

    def _on_refreshed(self, *, site: "Site", replica: object) -> None:
        self.track(replica)
