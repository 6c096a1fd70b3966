"""Per-site telemetry snapshots.

Operators of a middleware need to see what a site is doing: how many
masters and replicas it holds, how many faults it has taken, how much
traffic it has generated and where the simulated time went.  A
:class:`TelemetrySnapshot` captures that in one immutable record, and
``render()`` prints it the way the examples do.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


@dataclass
class SyncPathStats:
    """Counters for the delta synchronization path (PR 4).

    Application threads and dispatcher threads both sync replicas, so
    increments go through :meth:`add` under the internal lock, exactly
    like ``FaultPathStats`` — a bare ``+= 1`` loses counts across a
    read-modify-write.  Reading individual attributes is fine for
    monitoring; :meth:`snapshot` gives a mutually-consistent reading.
    """

    #: Write-backs that shipped only changed fields.
    puts_delta: int = 0
    #: Write-backs that shipped full state (delta off, unsupported peer,
    #: whole-object fallback, or a ``NEED_FULL`` downgrade retry).
    puts_full: int = 0
    #: Write-backs skipped entirely because the replica was clean.
    puts_noop: int = 0
    #: Refreshes served from the master's change log as field deltas.
    refreshes_delta: int = 0
    #: Refreshes that re-fetched full state.
    refreshes_full: int = 0
    #: Estimated full-state bytes that delta syncs avoided shipping.
    delta_bytes_saved: int = 0
    #: Delta attempts the peer answered with ``NEED_FULL`` (or whose
    #: merged state failed the fingerprint check locally).
    need_full_downgrades: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self,
        *,
        puts_delta: int = 0,
        puts_full: int = 0,
        puts_noop: int = 0,
        refreshes_delta: int = 0,
        refreshes_full: int = 0,
        delta_bytes_saved: int = 0,
        need_full_downgrades: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.puts_delta += puts_delta
            self.puts_full += puts_full
            self.puts_noop += puts_noop
            self.refreshes_delta += refreshes_delta
            self.refreshes_full += refreshes_full
            self.delta_bytes_saved += delta_bytes_saved
            self.need_full_downgrades += need_full_downgrades

    def snapshot(self) -> dict[str, int]:
        """A mutually-consistent reading of all counters."""
        with self._lock:
            return {
                "puts_delta": self.puts_delta,
                "puts_full": self.puts_full,
                "puts_noop": self.puts_noop,
                "refreshes_delta": self.refreshes_delta,
                "refreshes_full": self.refreshes_full,
                "delta_bytes_saved": self.delta_bytes_saved,
                "need_full_downgrades": self.need_full_downgrades,
            }

    def reset(self) -> dict[str, int]:
        """Zero the counters; returns the values they had."""
        with self._lock:
            before = {
                "puts_delta": self.puts_delta,
                "puts_full": self.puts_full,
                "puts_noop": self.puts_noop,
                "refreshes_delta": self.refreshes_delta,
                "refreshes_full": self.refreshes_full,
                "delta_bytes_saved": self.delta_bytes_saved,
                "need_full_downgrades": self.need_full_downgrades,
            }
            self.puts_delta = 0
            self.puts_full = 0
            self.puts_noop = 0
            self.refreshes_delta = 0
            self.refreshes_full = 0
            self.delta_bytes_saved = 0
            self.need_full_downgrades = 0
        return before


@dataclass
class SerialPathStats:
    """Counters for the serializer (obicodec, PR 7).

    Frames are encoded/decoded on application *and* dispatcher threads,
    so increments go through :meth:`add` under the lock, like
    :class:`SyncPathStats`.  Time is real nanoseconds
    (:func:`repro.util.clock.perf_ns`), not simulated cost-model time:
    the point is to see what the serializer itself costs.
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
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self,
        *,
        encodes_fast: int = 0,
        encodes_reflective: int = 0,
        decodes_fast: int = 0,
        frames_encoded: int = 0,
        frames_decoded: int = 0,
        encode_ns: int = 0,
        decode_ns: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.encodes_fast += encodes_fast
            self.encodes_reflective += encodes_reflective
            self.decodes_fast += decodes_fast
            self.frames_encoded += frames_encoded
            self.frames_decoded += frames_decoded
            self.encode_ns += encode_ns
            self.decode_ns += decode_ns

    def snapshot(self) -> dict[str, int]:
        """A mutually-consistent reading of all counters."""
        with self._lock:
            return {
                "encodes_fast": self.encodes_fast,
                "encodes_reflective": self.encodes_reflective,
                "decodes_fast": self.decodes_fast,
                "frames_encoded": self.frames_encoded,
                "frames_decoded": self.frames_decoded,
                "encode_ns": self.encode_ns,
                "decode_ns": self.decode_ns,
            }

    def reset(self) -> dict[str, int]:
        """Zero the counters; returns the values they had."""
        with self._lock:
            before = {
                "encodes_fast": self.encodes_fast,
                "encodes_reflective": self.encodes_reflective,
                "decodes_fast": self.decodes_fast,
                "frames_encoded": self.frames_encoded,
                "frames_decoded": self.frames_decoded,
                "encode_ns": self.encode_ns,
                "decode_ns": self.decode_ns,
            }
            self.encodes_fast = 0
            self.encodes_reflective = 0
            self.decodes_fast = 0
            self.frames_encoded = 0
            self.frames_decoded = 0
            self.encode_ns = 0
            self.decode_ns = 0
        return before


@dataclass
class FeedStats:
    """Counters and gauges for the change-feed layer (obifeed, PR 10).

    Feed frames are pushed from whatever thread recorded the change and
    applied on dispatcher threads, so counter bumps go through
    :meth:`add` under the lock like :class:`SyncPathStats`.  The gauges
    (``role``/``epoch``/``lag_serials``) are set, not accumulated.
    """

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
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(
        self,
        *,
        frames_pushed: int = 0,
        frames_applied: int = 0,
        stale_epoch_rejects: int = 0,
        catch_up_events: int = 0,
        snapshots_served: int = 0,
        snapshot_bootstraps: int = 0,
        promotions: int = 0,
        write_throughs: int = 0,
        push_failures: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.frames_pushed += frames_pushed
            self.frames_applied += frames_applied
            self.stale_epoch_rejects += stale_epoch_rejects
            self.catch_up_events += catch_up_events
            self.snapshots_served += snapshots_served
            self.snapshot_bootstraps += snapshot_bootstraps
            self.promotions += promotions
            self.write_throughs += write_throughs
            self.push_failures += push_failures

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

    def snapshot(self) -> dict[str, object]:
        """A mutually-consistent reading of gauges and counters."""
        with self._lock:
            return {
                "role": self.role,
                "epoch": self.epoch,
                "lag_serials": self.lag_serials,
                "frames_pushed": self.frames_pushed,
                "frames_applied": self.frames_applied,
                "stale_epoch_rejects": self.stale_epoch_rejects,
                "catch_up_events": self.catch_up_events,
                "snapshots_served": self.snapshots_served,
                "snapshot_bootstraps": self.snapshot_bootstraps,
                "promotions": self.promotions,
                "write_throughs": self.write_throughs,
                "push_failures": self.push_failures,
            }

    def reset(self) -> dict[str, object]:
        """Zero the counters (gauges keep their values); returns the prior reading."""
        with self._lock:
            before = {
                "role": self.role,
                "epoch": self.epoch,
                "lag_serials": self.lag_serials,
                "frames_pushed": self.frames_pushed,
                "frames_applied": self.frames_applied,
                "stale_epoch_rejects": self.stale_epoch_rejects,
                "catch_up_events": self.catch_up_events,
                "snapshots_served": self.snapshots_served,
                "snapshot_bootstraps": self.snapshot_bootstraps,
                "promotions": self.promotions,
                "write_throughs": self.write_throughs,
                "push_failures": self.push_failures,
            }
            self.frames_pushed = 0
            self.frames_applied = 0
            self.stale_epoch_rejects = 0
            self.catch_up_events = 0
            self.snapshots_served = 0
            self.snapshot_bootstraps = 0
            self.promotions = 0
            self.write_throughs = 0
            self.push_failures = 0
        return before


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
    #: Fault fast-path counters (see ``repro.core.runtime.FaultPathStats``).
    demands_batched: int
    prefetch_hits: int
    coalesced_faults: int
    #: Pooled-TCP reuse attributed to this site as caller; 0 on transports
    #: without a connection pool.
    connections_reused: int
    #: Delta-sync counters (see :class:`SyncPathStats`).
    puts_delta: int
    puts_full: int
    puts_noop: int
    refreshes_delta: int
    refreshes_full: int
    delta_bytes_saved: int
    need_full_downgrades: int
    #: Causal-tracing collector state (obitrace, PR 5); zeros while the
    #: site has never traced.
    tracing_enabled: bool
    spans_recorded: int
    spans_dropped: int
    span_high_water: int
    #: Stripe-lock contention (PR 6): stripe count, blocking acquires,
    #: deepest reentrancy seen across the site's stripe locks.
    stripe_count: int
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
            f"  deltasync: {self.puts_delta} delta / {self.puts_full} full / "
            f"{self.puts_noop} no-op puts, "
            f"{self.refreshes_delta} delta / {self.refreshes_full} full refreshes, "
            f"{self.need_full_downgrades} NEED_FULL downgrades, "
            f"~{self.delta_bytes_saved} B saved\n"
            f"  stripes : {self.stripe_count} stripes, "
            f"{self.stripe_acquire_waits} acquire waits, "
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

    bytes_sent = messages_sent = bytes_received = messages_received = 0
    for (src, dst), link in site.world.network.stats.per_link.items():
        if src == site.name:
            bytes_sent += link.bytes
            messages_sent += link.messages
        if dst == site.name:
            bytes_received += link.bytes
            messages_received += link.messages

    pool_stats = getattr(site.world.network, "pool_stats", None)
    connections_reused = (
        pool_stats.reused_from(site.name) if pool_stats is not None else 0
    )
    sync = site.sync_stats.snapshot()
    serial = site.serial_stats.snapshot()
    feed = site.feed_stats.snapshot()
    stripe_metrics = site.stripe_metrics()
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
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        messages_sent=messages_sent,
        messages_received=messages_received,
        demands_batched=site.fault_stats.demands_batched,
        prefetch_hits=site.fault_stats.prefetch_hits,
        coalesced_faults=site.fault_stats.coalesced_faults,
        connections_reused=connections_reused,
        puts_delta=sync["puts_delta"],
        puts_full=sync["puts_full"],
        puts_noop=sync["puts_noop"],
        refreshes_delta=sync["refreshes_delta"],
        refreshes_full=sync["refreshes_full"],
        delta_bytes_saved=sync["delta_bytes_saved"],
        need_full_downgrades=sync["need_full_downgrades"],
        tracing_enabled=site.tracer.enabled,
        spans_recorded=span_stats["recorded"],
        spans_dropped=span_stats["dropped"],
        span_high_water=span_stats["high_water"],
        stripe_count=stripe_metrics["stripes"],
        stripe_acquire_waits=stripe_metrics["acquire_waits"],
        stripe_max_depth=stripe_metrics["max_depth"],
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
