"""Connectivity state: disconnections and partitions.

The paper's central scenario is a mobile site that loses connectivity —
voluntarily (connection cost) or involuntarily (no coverage) — and keeps
working on local replicas.  :class:`ConnectivityMap` tracks which sites can
currently talk, and why not when they cannot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Disconnection:
    """Why a site is offline."""

    site_id: str
    voluntary: bool


class ConnectivityMap:
    """Tracks per-site disconnections and pairwise partitions.

    Two sites can communicate iff neither is disconnected and no partition
    separates them.  Thread-safe: the TCP transport consults it from
    serving threads while tests mutate it from the main thread.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._disconnected: dict[str, Disconnection] = {}
        self._partitions: list[tuple[frozenset[str], frozenset[str]]] = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def disconnect(self, site_id: str, *, voluntary: bool = False) -> None:
        """Take ``site_id`` offline."""
        with self._lock:
            self._disconnected[site_id] = Disconnection(site_id, voluntary)

    def reconnect(self, site_id: str) -> None:
        """Bring ``site_id`` back online (idempotent)."""
        with self._lock:
            self._disconnected.pop(site_id, None)

    def partition(self, group_a: set[str] | frozenset[str], group_b: set[str] | frozenset[str]) -> None:
        """Sever communication between every pair across the two groups."""
        a, b = frozenset(group_a), frozenset(group_b)
        if a & b:
            raise ValueError(f"partition groups overlap: {sorted(a & b)}")
        with self._lock:
            self._partitions.append((a, b))

    def heal(self) -> None:
        """Remove all partitions (disconnections stay in force)."""
        with self._lock:
            self._partitions.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_disconnected(self, site_id: str) -> bool:
        with self._lock:
            return site_id in self._disconnected

    def disconnection(self, site_id: str) -> Disconnection | None:
        with self._lock:
            return self._disconnected.get(site_id)

    def can_communicate(self, a: str, b: str) -> bool:
        """True iff a frame from ``a`` can currently reach ``b``."""
        if a == b:
            return True
        with self._lock:
            if a in self._disconnected or b in self._disconnected:
                return False
            for group_a, group_b in self._partitions:
                if (a in group_a and b in group_b) or (a in group_b and b in group_a):
                    return False
        return True

    def blocking_disconnection(self, a: str, b: str) -> Disconnection | None:
        """The disconnection record blocking ``a``→``b``, if any."""
        with self._lock:
            for site in (a, b):
                record = self._disconnected.get(site)
                if record is not None:
                    return record
        return None
