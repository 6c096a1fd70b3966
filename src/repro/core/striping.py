"""Stripe primitives for the partitioned :class:`~repro.core.runtime.Site`.

PR 3's obiflow audit left every object-table access serialized under one
global reentrant ``Site._lock`` — the single hot lock the ROADMAP names
as the scalability ceiling.  This module holds the pieces the striped
runtime is built from, kept separate so the analyzer, the runtime, and
the benchmarks share one vocabulary:

* :func:`stripe_of` — the deterministic oid → stripe routing function;
* :class:`StripeLock` — a reentrant per-stripe lock that counts
  contention (acquire waits, reentrancy depth) for telemetry;
* :func:`snapshot_read` — the declaration marker for lock-free read
  paths.  obiflow keys on it: a declared snapshot read may read striped
  tables and guarded fields without their locks (OBI203/OBI207 exempt
  the reads) but must not mutate guarded state, transitively (OBI209);
* :class:`StripedStats` — per-stripe shards of a counter dataclass
  (``FaultPathStats``, ``SyncPathStats``) merged on read, so hot-path
  threads on different stripes never touch the same counter lock.

Striping is node-local: nothing here crosses the wire, so a striped
site interoperates with un-upgraded peers unchanged.
"""

from __future__ import annotations

import threading
import zlib
from typing import Callable, TypeVar

#: Default stripe count for new sites (a power of two); override per
#: site or per world (``World(..., stripes=N)``).
DEFAULT_STRIPES = 16

_F = TypeVar("_F", bound=Callable)


def stripe_of(oid: str, stripes: int) -> int:
    """Deterministic stripe index for an obi id.

    ``zlib.crc32`` rather than ``hash()``: the builtin string hash is
    salted per process, and stripe routing must agree across threads,
    runs, and recorded telemetry (the property tests pin exact routes).
    """
    return zlib.crc32(oid.encode("utf-8")) % stripes


def snapshot_read(func: _F) -> _F:
    """Declare a method a lock-free snapshot read.

    A snapshot read may look at stripe-partitioned tables and guarded
    fields without taking their locks — safe for single-key ``get``-style
    probes, where the interpreter's atomic dict operations give a
    point-in-time answer and the caller tolerates racing with writers
    (a fault that misses re-checks under the lock it takes next).

    The declaration is load-bearing for obiflow: OBI203/OBI207 stop
    flagging the unlocked *reads*, and OBI209 enforces the other half of
    the contract — no path out of a declared snapshot read may mutate
    guarded state.
    """
    func.__obiwan_snapshot_read__ = True
    return func


class StripeLock:
    """One stripe's reentrant lock, with contention accounting.

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


class StripedStats:
    """Per-stripe shards of a counter object, merged on read.

    Wraps ``stripes`` instances built by ``factory`` (any class with the
    ``add(**counters)`` / ``snapshot()`` / ``reset()`` protocol of
    ``FaultPathStats`` and ``SyncPathStats``).  Keyed adds route by
    :func:`stripe_of` so threads working different stripes bump disjoint
    shards; unkeyed adds route by thread identity, which spreads
    uncorrelated callers without any shared state.

    Reading a counter attribute sums it across shards, so existing
    consumers (telemetry, the consistency layer, tests asserting
    ``site.sync_stats.puts_delta``) see the same totals they always did.
    """

    def __init__(self, factory: Callable[[], object], stripes: int):
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        self._shards = [factory() for _ in range(stripes)]
        self._fields = tuple(self._shards[0].snapshot())

    def shard_for(self, oid: str | None = None):
        """The shard a keyed (or thread-routed) add lands in."""
        if oid is None:
            index = threading.get_ident() % len(self._shards)
        else:
            index = stripe_of(oid, len(self._shards))
        return self._shards[index]

    def add(self, *, oid: str | None = None, **counters: int) -> None:
        """Atomically bump counters on the owning shard."""
        self.shard_for(oid).add(**counters)

    def snapshot(self) -> dict[str, int]:
        """Counter totals summed across every shard."""
        merged = dict.fromkeys(self._fields, 0)
        for shard in self._shards:
            for name, value in shard.snapshot().items():
                merged[name] += value
        return merged

    def reset(self) -> dict[str, int]:
        """Zero every shard; returns the pre-reset totals."""
        merged = dict.fromkeys(self._fields, 0)
        for shard in self._shards:
            for name, value in shard.reset().items():
                merged[name] += value
        return merged

    def per_stripe(self) -> list[dict[str, int]]:
        """One snapshot per shard, in stripe order."""
        return [shard.snapshot() for shard in self._shards]

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._fields:
            return sum(getattr(shard, name) for shard in self._shards)
        raise AttributeError(
            f"{type(self).__name__} has no counter {name!r} "
            f"(shards expose {', '.join(self._fields)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        totals = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"StripedStats({len(self._shards)} stripes, {totals})"
