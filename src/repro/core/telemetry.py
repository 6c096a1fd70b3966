"""Per-site telemetry snapshots.

Operators of a middleware need to see what a site is doing: how many
masters and replicas it holds, how many faults it has taken, how much
traffic it has generated and where the simulated time went.  A
:class:`TelemetrySnapshot` captures that in one immutable record, and
``render()`` prints it the way the examples do.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


@dataclass
class Counters:
    """A group of counters bumped from many threads.

    Increments go through :meth:`add` under one lock — a bare ``+= 1``
    loses counts across a read-modify-write.  Reading one attribute is
    fine for monitoring; :meth:`snapshot` gives a mutually-consistent
    reading of every public field, and :meth:`reset` zeroes the counters
    atomically with that reading.  Subclasses declare their counters as
    ``int`` fields; names listed in ``GAUGES`` are set, not accumulated.
    """

    GAUGES: ClassVar[frozenset[str]] = frozenset()

    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, **counts: int) -> None:
        """Atomically bump any subset of the counters."""
        names = _counter_names(type(self))
        with self._lock:
            for name, count in counts.items():
                if name not in names:
                    raise TypeError(f"{type(self).__name__} has no counter {name!r}")
                setattr(self, name, getattr(self, name) + count)

    def snapshot(self) -> dict[str, object]:
        """A mutually-consistent reading of every public field."""
        with self._lock:
            return self._reading()

    def reset(self) -> dict[str, object]:
        """Zero the counters (gauges keep their values); returns the
        reading they had, so no increment falls between the two."""
        with self._lock:
            before = self._reading()
            for name in _counter_names(type(self)):
                setattr(self, name, 0)
        return before

    def _reading(self) -> dict[str, object]:
        return {
            f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("_")
        }


@functools.cache
def _counter_names(cls: type[Counters]) -> frozenset[str]:
    return frozenset(
        f.name for f in fields(cls) if not f.name.startswith("_") and f.name not in cls.GAUGES
    )


@dataclass
class FaultPathStats(Counters):
    """Counters for the batched/prefetching fault fast path.

    Faulting threads race on these (coalesced faults exist precisely
    because resolution is concurrent).
    """

    #: Demand round trips that went through the batched fast path
    #: (widened scope and/or piggybacked sibling demands).
    demands_batched: int = 0
    #: Objects replicated ahead of need: read-ahead members beyond the
    #: mode's own chunk, plus sibling proxies resolved without a round
    #: trip of their own.
    prefetch_hits: int = 0
    #: Faults that waited on another thread's in-flight demand instead of
    #: issuing a duplicate round trip.
    coalesced_faults: int = 0


@dataclass
class SyncPathStats(Counters):
    """Counters for write-backs and refreshes, which application threads
    and dispatcher threads both perform."""

    #: ``put`` round trips that shipped replica state to a master (one
    #: per provider site of a ``put_back_many``, one per cluster put,
    #: one per consistency-coordinator write-back).
    puts_full: int = 0
    #: Refreshes that re-fetched state through ``get``.
    refreshes_full: int = 0


@dataclass
class SerialPathStats(Counters):
    """Counters for the serializer (obicodec, PR 7).

    Frames are encoded/decoded on application *and* dispatcher threads.
    Time is real nanoseconds (:func:`repro.util.clock.perf_ns`), not
    simulated cost-model time: the point is to see what the serializer
    itself costs.
    """

    #: Objects encoded through a compiled OBJECT_SCHEMA codec.
    encodes_fast: int = 0
    #: Objects that fell back to the reflective OBJECT path while the
    #: compiled path was enabled (no codec, or shape drift).
    encodes_reflective: int = 0
    #: Objects decoded through a compiled codec.
    decodes_fast: int = 0
    #: Whole frames encoded / decoded by stats-carrying codecs.
    frames_encoded: int = 0
    frames_decoded: int = 0
    #: Wall nanoseconds spent inside encode() / decode().
    encode_ns: int = 0
    decode_ns: int = 0


@dataclass
class FeedStats(Counters):
    """Counters and gauges for the change-feed layer (obifeed, PR 10).

    Feed frames are pushed from whatever thread recorded the change and
    applied on dispatcher threads.  The gauges (``role``/``epoch``/
    ``lag_serials``) are set through :meth:`set_gauges`, not accumulated.
    """

    GAUGES: ClassVar[frozenset[str]] = frozenset({"role", "epoch", "lag_serials"})

    #: ``"none"``, ``"primary"``, ``"follower"`` or ``"demoted"``.
    role: str = "none"
    #: The failover epoch this site last saw (0 = never in a feed group).
    epoch: int = 0
    #: Journal serials the follower still trails the primary by, as of
    #: the last batch received (0 when caught up, or for primaries).
    lag_serials: int = 0
    #: Frames pushed to followers (primary side, per subscriber).
    frames_pushed: int = 0
    #: Frames applied to the local tables (follower side).
    frames_applied: int = 0
    #: Frames rejected because they carried a stale epoch.
    stale_epoch_rejects: int = 0
    #: Journal events replayed during reconnect catch-up.
    catch_up_events: int = 0
    #: Full snapshots served to bootstrapping followers (primary side).
    snapshots_served: int = 0
    #: Full-snapshot bootstraps performed (follower side).
    snapshot_bootstraps: int = 0
    #: Times this site was promoted to primary.
    promotions: int = 0
    #: Writes proxied through to the primary (follower side).
    write_throughs: int = 0
    #: Pushes that failed to reach a subscriber (marked stalled).
    push_failures: int = 0

    def set_gauges(
        self,
        *,
        role: str | None = None,
        epoch: int | None = None,
        lag_serials: int | None = None,
    ) -> None:
        """Set any subset of the point-in-time gauges."""
        with self._lock:
            if role is not None:
                self.role = role
            if epoch is not None:
                self.epoch = epoch
            if lag_serials is not None:
                self.lag_serials = lag_serials


@dataclass(frozen=True, slots=True)
class TelemetrySnapshot:
    """One site's state at a point in (simulated) time."""

    site: str
    clock_s: float
    masters: int
    replicas: int
    cluster_members: int
    individually_updatable: int
    pending_proxies: int
    exported_objects: int
    proxies_created: int
    faults_resolved: int
    proxies_collected: int
    bytes_sent: int
    bytes_received: int
    messages_sent: int
    messages_received: int
    #: Fault fast-path counters (see :class:`FaultPathStats`).
    demands_batched: int
    prefetch_hits: int
    coalesced_faults: int
    #: Pooled-TCP reuse attributed to this site as caller; 0 on transports
    #: without a connection pool.
    connections_reused: int
    #: Write-back and refresh counters (see :class:`SyncPathStats`).
    puts_full: int
    refreshes_full: int
    #: Causal-tracing collector state (obitrace, PR 5); zeros while the
    #: site has never traced.
    tracing_enabled: bool
    spans_recorded: int
    spans_dropped: int
    span_high_water: int
    #: Table-lock contention: blocking acquires and the deepest
    #: reentrancy seen on the site's one table lock.
    stripe_acquire_waits: int
    stripe_max_depth: int
    #: Serializer fast-path counters (obicodec, PR 7); see
    #: :class:`SerialPathStats`.
    serial_fast_encodes: int
    serial_reflective_encodes: int
    serial_fast_decodes: int
    serial_encode_ns: int
    serial_decode_ns: int
    #: Change-feed role counters (obifeed, PR 10); see :class:`FeedStats`.
    feed_role: str
    feed_epoch: int
    feed_lag_serials: int
    feed_frames_pushed: int
    feed_frames_applied: int
    feed_stale_epoch_rejects: int
    feed_catch_up_events: int
    feed_snapshot_bootstraps: int
    feed_promotions: int
    feed_write_throughs: int
    feed_push_failures: int

    def render(self) -> str:
        return (
            f"site {self.site} @ t={self.clock_s:.3f}s\n"
            f"  objects : {self.masters} masters, {self.replicas} replicas "
            f"({self.individually_updatable} updatable, "
            f"{self.cluster_members} cluster members), "
            f"{self.pending_proxies} pending proxies\n"
            f"  faults  : {self.faults_resolved} resolved of "
            f"{self.proxies_created} proxies created; "
            f"{self.proxies_collected} collected\n"
            f"  fastpath: {self.demands_batched} batched demands, "
            f"{self.prefetch_hits} prefetch hits, "
            f"{self.coalesced_faults} coalesced faults, "
            f"{self.connections_reused} connections reused\n"
            f"  sync    : {self.puts_full} puts, "
            f"{self.refreshes_full} refreshes\n"
            f"  lock    : {self.stripe_acquire_waits} acquire waits, "
            f"max depth {self.stripe_max_depth}\n"
            f"  serial  : {self.serial_fast_encodes} fast / "
            f"{self.serial_reflective_encodes} reflective encodes, "
            f"{self.serial_fast_decodes} fast decodes, "
            f"{self.serial_encode_ns} ns encoding, "
            f"{self.serial_decode_ns} ns decoding\n"
            f"  feed    : role {self.feed_role}, epoch {self.feed_epoch}, "
            f"lag {self.feed_lag_serials} serials, "
            f"{self.feed_frames_pushed} pushed / {self.feed_frames_applied} applied, "
            f"{self.feed_catch_up_events} catch-up events, "
            f"{self.feed_snapshot_bootstraps} snapshot bootstraps, "
            f"{self.feed_stale_epoch_rejects} stale-epoch rejects, "
            f"{self.feed_promotions} promotions, "
            f"{self.feed_write_throughs} write-throughs, "
            f"{self.feed_push_failures} push failures\n"
            f"  tracing : {'on' if self.tracing_enabled else 'off'}, "
            f"{self.spans_recorded} spans recorded, "
            f"{self.spans_dropped} dropped, "
            f"high water {self.span_high_water}\n"
            f"  traffic : sent {self.messages_sent} msgs / {self.bytes_sent} B, "
            f"received {self.messages_received} msgs / {self.bytes_received} B"
        )


def snapshot(site: "Site") -> TelemetrySnapshot:
    """Capture a site's telemetry right now."""
    replicas = list(site.iter_replicas())
    cluster_members = sum(1 for r in replicas if r.cluster_root is not None)

    traffic = site.world.network.stats.site_totals(site.name)

    pool_stats = getattr(site.world.network, "pool_stats", None)
    connections_reused = (
        pool_stats.reused_from(site.name) if pool_stats is not None else 0
    )
    fault = site.fault_stats.snapshot()
    sync = site.sync_stats.snapshot()
    serial = site.serial_stats.snapshot()
    feed = site.feed_stats.snapshot()
    lock_metrics = site.stripe_metrics()
    collector = getattr(site.tracer, "collector", None)
    span_stats = (
        collector.stats()
        if collector is not None
        else {"recorded": 0, "dropped": 0, "high_water": 0}
    )

    return TelemetrySnapshot(
        site=site.name,
        clock_s=site.clock.now(),
        masters=site.master_count(),
        replicas=len(replicas),
        cluster_members=cluster_members,
        individually_updatable=sum(1 for r in replicas if r.provider is not None),
        pending_proxies=site.pending_proxy_count(),
        exported_objects=len(site.endpoint.objects),
        proxies_created=site.gc_stats.proxies_created,
        faults_resolved=site.gc_stats.faults_resolved,
        proxies_collected=site.gc_stats.resolved_collected,
        bytes_sent=traffic["bytes_sent"],
        bytes_received=traffic["bytes_received"],
        messages_sent=traffic["messages_sent"],
        messages_received=traffic["messages_received"],
        demands_batched=fault["demands_batched"],
        prefetch_hits=fault["prefetch_hits"],
        coalesced_faults=fault["coalesced_faults"],
        connections_reused=connections_reused,
        puts_full=sync["puts_full"],
        refreshes_full=sync["refreshes_full"],
        tracing_enabled=site.tracer.enabled,
        spans_recorded=span_stats["recorded"],
        spans_dropped=span_stats["dropped"],
        span_high_water=span_stats["high_water"],
        stripe_acquire_waits=lock_metrics["acquire_waits"],
        stripe_max_depth=lock_metrics["max_depth"],
        serial_fast_encodes=serial["encodes_fast"],
        serial_reflective_encodes=serial["encodes_reflective"],
        serial_fast_decodes=serial["decodes_fast"],
        serial_encode_ns=serial["encode_ns"],
        serial_decode_ns=serial["decode_ns"],
        feed_role=str(feed["role"]),
        feed_epoch=int(feed["epoch"]),
        feed_lag_serials=int(feed["lag_serials"]),
        feed_frames_pushed=int(feed["frames_pushed"]),
        feed_frames_applied=int(feed["frames_applied"]),
        feed_stale_epoch_rejects=int(feed["stale_epoch_rejects"]),
        feed_catch_up_events=int(feed["catch_up_events"]),
        feed_snapshot_bootstraps=int(feed["snapshot_bootstraps"]),
        feed_promotions=int(feed["promotions"]),
        feed_write_throughs=int(feed["write_throughs"]),
        feed_push_failures=int(feed["push_failures"]),
    )
