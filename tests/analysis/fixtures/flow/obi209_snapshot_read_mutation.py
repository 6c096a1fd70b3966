"""Seeded defect: a declared snapshot read that mutates state (OBI209).

``observe`` is decorated ``@snapshot_read`` — a promise of lock-free,
read-only behaviour — yet it calls ``_bump``, which writes the
lock-guarded table.  The helper even takes the lock, so OBI203 is
satisfied; the defect is purely that a mutation is reachable from a
path declared to be a read.
"""

import threading


def snapshot_read(func):
    func.__obiwan_snapshot_read__ = True
    return func


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}

    def _bump(self, oid):
        with self._lock:
            self._counts[oid] = self._counts.get(oid, 0) + 1

    @snapshot_read
    def observe(self, oid):
        self._bump(oid)
        return self._counts.get(oid)
