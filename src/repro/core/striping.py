"""Lock primitives for the :class:`~repro.core.runtime.Site` object tables.

A site keeps its masters, replicas, pending proxies and in-flight demands
in flat dicts under one reentrant lock.  This module holds the two
pieces that discipline is built from, kept separate so the analyzer,
the runtime, and the benchmarks share one vocabulary:

* :class:`StripeLock` — the reentrant table lock, which counts
  contention (acquire waits, reentrancy depth) for telemetry;
* :func:`snapshot_read` — the declaration marker for lock-free read
  paths.  obiflow keys on it: a declared snapshot read may read guarded
  tables without their lock (OBI203 exempts the reads) but must not
  mutate guarded state, transitively (OBI209).

Nothing here crosses the wire.
"""

from __future__ import annotations

import threading
from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)


def snapshot_read(func: _F) -> _F:
    """Declare a method a lock-free snapshot read.

    A snapshot read may look at lock-guarded tables without taking the
    lock — safe for single-key ``get``-style probes, where the
    interpreter's atomic dict operations give a point-in-time answer and
    the caller tolerates racing with writers (a fault that misses
    re-checks under the lock it takes next).

    The declaration is load-bearing for obiflow: OBI203 stops flagging
    the unlocked *reads*, and OBI209 enforces the other half of the
    contract — no path out of a declared snapshot read may mutate
    guarded state.
    """
    func.__obiwan_snapshot_read__ = True
    return func


class StripeLock:
    """A reentrant lock with contention accounting.

    ``acquire`` first tries the non-blocking fast path; only a refused
    attempt counts as a *wait* before falling back to a blocking
    acquire.  ``max_depth`` records the deepest reentrancy seen.  Both
    counters are monitoring-grade: ``waits`` increments outside the lock
    (there is nothing else to hold), so a burst of simultaneous blockers
    may undercount by a few — telemetry, not bookkeeping.
    """

    __slots__ = ("_inner", "waits", "depth", "max_depth")

    def __init__(self) -> None:
        self._inner = threading.RLock()
        #: Acquires that found the lock held by another thread.
        self.waits = 0
        #: Current reentrancy depth of the owning thread.
        self.depth = 0
        #: Deepest reentrancy observed.
        self.max_depth = 0

    def acquire(self) -> None:
        if not self._inner.acquire(blocking=False):
            self.waits += 1
            self._inner.acquire()
        self.depth += 1
        if self.depth > self.max_depth:
            self.max_depth = self.depth

    def release(self) -> None:
        self.depth -= 1
        self._inner.release()

    def __enter__(self) -> "StripeLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StripeLock(waits={self.waits}, max_depth={self.max_depth})"
