"""The OBIWAN runtime: sites and worlds.

A :class:`Site` models one OBIWAN process (the paper's S1/S2): it owns the
master and replica tables, the exported proxy-ins, the pending proxy-outs
and the cost accounting.  A :class:`World` wires sites to a network and a
name server and is the entry point of the public API::

    world = World.loopback()
    provider = world.create_site("S2")
    consumer = world.create_site("S1")

    ref = provider.export(master, name="a")
    replica = consumer.replicate("a", mode=Incremental(10))   # LMI path
    stub = consumer.remote_stub("a")                          # RMI path

The choice between ``replicate`` (local method invocation on a replica)
and ``remote_stub`` (remote method invocation on the master) is the
run-time decision the paper puts in the application's hands.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core import cluster as cluster_ops
from repro.core import faults
from repro.core.costs import CostModel
from repro.core.gc_stats import GcStats
from repro.core.interfaces import Incremental, ReplicationMode
from repro.core.meta import (
    compiled_registry,
    interface_of,
    is_obiwan,
    obi_id_of,
)
from repro.core.packages import ObjectMeta
from repro.core.proxy_in import ProxyIn
from repro.core.proxy_out import ProxyOutBase
from repro.core.replication import build_put, integrate_package
from repro.core.striping import StripeLock, snapshot_read
from repro.core.telemetry import FaultPathStats, FeedStats, SerialPathStats, SyncPathStats
from repro.core.versions import ChangeLog
from repro.obs.context import NULL_TRACER, Tracer
from repro.obs.spans import SpanCollector
from repro.rmi.acl import AccessGuard, authorize
from repro.rmi.endpoint import RmiEndpoint
from repro.rmi.refs import RemoteRef
from repro.rmi.stub import Stub
from repro.serial.fingerprint import Fingerprinter
from repro.simnet.link import LAN_10MBPS, Link
from repro.simnet.loopback import LoopbackNetwork
from repro.simnet.network import Network
from repro.simnet.tcp import TcpNetwork
from repro.util.clock import Clock, SimClock, WallClock
from repro.util.errors import (
    ClusterError,
    ProtocolError,
    ReplicationError,
    UnknownReplicaError,
)
from repro.util.events import EventBus
from repro.util.ids import new_site_id


@dataclass
class MasterRecord:
    """Bookkeeping for one object mastered at this site."""

    obj: object
    version: int = 1


class _InflightDemand:
    """Rendezvous for faults coalescing on one in-flight demand."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: object | None = None
        self.error: BaseException | None = None


@dataclass
class ReplicaRecord:
    """Bookkeeping for one replica held at this site."""

    obj: object
    provider: RemoteRef | None
    version: int
    mode: ReplicationMode
    cluster_root: str | None = None
    #: Set by the consistency layer (invalidation/lease protocols).
    invalidated: bool = field(default=False)
    lease_expires_at: float | None = field(default=None)


@dataclass(slots=True)
class _WriteBack:
    """One replica on its way through :meth:`Site.put_back_many`."""

    oid: str
    replica: object
    record: ReplicaRecord


class Site:
    """One OBIWAN process: masters, replicas, proxies, costs."""

    def __init__(self, world: "World", name: str, endpoint: RmiEndpoint):
        self.world = world
        self.name = name
        self.endpoint = endpoint
        self.costs: CostModel = world.costs
        self.gc_stats = GcStats()
        self.fault_stats = FaultPathStats()
        self.sync_stats = SyncPathStats()
        self.serial_stats = SerialPathStats()
        #: Causal tracer (obitrace, PR 5).  :data:`NULL_TRACER` — whose
        #: ``span()`` hands back one shared no-op context manager — until
        #: :meth:`enable_tracing` swaps in a live one.  Shared with the
        #: RMI endpoint so invoke/serve spans land in the same collector.
        self.tracer = NULL_TRACER
        #: Deterministic state digests, for cross-site convergence checks.
        self.fingerprinter = Fingerprinter(endpoint.registry)
        #: Master-side journal of applied changes (the change feed's source).
        self.change_log = ChangeLog()
        #: Local pub/sub used by the consistency and mobility layers.
        #: Topics: ``replica_registered``, ``replica_refreshed``,
        #: ``put_applied``, ``fault_resolved``.
        self.events = EventBus()
        #: Change-feed counters (PR 10); always present so telemetry can
        #: render a ``feed:`` line even for sites with no feed role.
        self.feed_stats = FeedStats()
        #: The attached :mod:`repro.feed` role — a ``FeedPrimary`` or
        #: ``FeedFollower`` — or ``None``.  The exported feed service
        #: dispatches its verbs through whatever role is current, so a
        #: promotion swaps behaviour without re-exporting anything.
        self.feed_role = None
        self._closed = False
        #: The one lock guarding the object tables below: provider-side
        #: dispatcher threads and application threads touch them
        #: concurrently on the TCP transport.  Re-entrant because engine
        #: paths nest (e.g. drop_master -> retract of the same object).
        #: obiflow machine-checks the discipline: every access outside a
        #: declared ``@snapshot_read`` holds it (OBI203), and snapshot
        #: reads never write (OBI209).  Each table keeps registration
        #: order, which cluster member order and the iterators rely on.
        self._lock = StripeLock()
        self._masters: dict[str, MasterRecord] = {}
        self._replicas: dict[str, ReplicaRecord] = {}
        self._provider_refs: dict[str, RemoteRef] = {}
        self._pending_proxies: "weakref.WeakValueDictionary[str, ProxyOutBase]" = (
            weakref.WeakValueDictionary()
        )
        #: Demands currently on the wire, keyed by target obi id; faults
        #: racing on one target coalesce through these handles.
        self._inflight_demands: dict[str, _InflightDemand] = {}

    # ------------------------------------------------------------------
    # public API: provider role
    # ------------------------------------------------------------------
    def export(self, obj: object, *, name: str | None = None) -> RemoteRef:
        """Make ``obj`` available to other sites; optionally bind a name.

        The object becomes a *master* here; its proxy-in is exported
        through RMI and, when ``name`` is given, registered in the name
        server (the paper's "only AProxyIn is registered in a name
        server").
        """
        ref, _created = self.ensure_provider_for(obj)
        if name is not None:
            self.naming.rebind(name, ref)
        return ref

    def export_guarded(self, obj: object, policy, *, name: str | None = None) -> RemoteRef:
        """Export ``obj`` behind an access policy (see ``repro.rmi.acl``).

        Remote calls — including the replication protocol's ``get`` /
        ``put`` / ``demand`` — are checked against ``policy`` with the
        caller's site identity; local use of the object is unrestricted.
        Must be called before any unguarded export of the same object.
        """
        oid = obi_id_of(obj)
        with self._lock:
            if oid in self._provider_refs:
                raise ReplicationError(
                    f"object {oid!r} is already exported unguarded; "
                    "export_guarded must come first"
                )
            interface = interface_of(obj)
            guard = AccessGuard(self.endpoint, ProxyIn(self, obj), policy)
            ref = self.endpoint.export(guard, interface=interface.name)
            self._provider_refs[oid] = ref
            if oid not in self._replicas:
                self._masters.setdefault(oid, MasterRecord(obj=obj))
        self.events.publish("provider_exported", site=self, oid=oid, ref=ref)
        if name is not None:
            self.naming.rebind(name, ref)
        return ref

    # ------------------------------------------------------------------
    # public API: consumer role
    # ------------------------------------------------------------------
    def replicate(
        self, target: str | RemoteRef, mode: ReplicationMode | None = None
    ) -> object:
        """Fetch a replica of the object behind ``target``.

        ``target`` is a bound name or a proxy-in reference.  ``mode``
        picks the granularity at run time (paper Section 2.1): per-object
        incremental, transitive closure, or cluster.
        """
        label = (
            target
            if isinstance(target, str)
            else getattr(target, "object_id", repr(target))
        )
        with self.tracer.span("replicate", name=label) as span:
            ref = self._resolve_target(target)
            package = self.endpoint.invoke(
                ref,
                "get",
                (mode if mode is not None else Incremental(1),),
            )
            replica = integrate_package(self, package)
            span.set(provider=ref.site_id, objects=package.object_count)
        self.events.publish("replica_registered", site=self, root=replica, package=package)
        return replica

    def remote_stub(self, target: str | RemoteRef) -> Stub:
        """An RMI stub on the master — every call crosses the network.

        Exposes the user interface (forwarded by the proxy-in), so an
        application can switch between this stub and a replica at run
        time without changing call sites.
        """
        ref = self._resolve_target(target)
        entry = compiled_registry.by_interface(ref.interface)
        return self.endpoint.stub(ref, entry.interface.methods)

    def put_back(self, replica: object) -> int:
        """Push a replica's state onto its master; returns the new version.

        The one-element case of :meth:`put_back_many`.
        """
        return self.put_back_many([replica])[obi_id_of(replica)]

    def put_back_many(self, replicas: Iterable[object]) -> dict[str, int]:
        """Push several replicas onto their masters; returns their versions.

        One round trip per provider *site*, whatever the number of
        replicas: their states travel as the entries of one ``put``, which
        the master authorises per entry, validates before it applies, and
        journals as one batch.
        """
        by_site: dict[str, list[_WriteBack]] = {}
        for replica in replicas:
            cluster_ops.check_individually_updatable(self, replica)
            info = self._replica_record(replica)
            by_site.setdefault(info.provider.site_id, []).append(
                _WriteBack(obi_id_of(replica), replica, info)
            )
        versions: dict[str, int] = {}
        for items in by_site.values():
            # One put per provider site, through the first replica's proxy-in.
            provider = items[0].record.provider
            with self.tracer.span("put_back", name=items[0].oid, replicas=len(items)):
                package = build_put(self, [item.replica for item in items], provider.site_id)
                acked = self.endpoint.invoke(provider, "put", (package,))
            _commit_versions(acked, items, versions)
            self.sync_stats.add(puts_full=1)
        return versions

    def master_versions(self, records: Iterable[ReplicaRecord]) -> dict[str, int]:
        """The current master version behind each replica record.

        One round trip per provider *site*: a single ``get_version`` call,
        made through the first record's provider reference, carries the
        oids of every record bound for that site.  The provider checks each
        oid against its own export (see :meth:`probe_versions`), so a
        dropped master or a denying guard fails the whole probe with its
        typed error, as a per-object call would have.
        """
        by_site: dict[str, tuple[RemoteRef, list[str]]] = {}
        for record in records:
            provider = record.provider
            probe = by_site.get(provider.site_id)
            if probe is None:
                probe = by_site[provider.site_id] = (provider, [])
            probe[1].append(obi_id_of(record.obj))
        versions: dict[str, int] = {}
        for site_id, (provider, oids) in by_site.items():
            with self.tracer.span("master_versions", dst=site_id, probes=len(oids)):
                probed = self.endpoint.invoke(provider, "get_version", (oids,))
            if not isinstance(probed, list) or len(probed) != len(oids):
                raise ProtocolError(
                    f"version probe of {len(oids)} oids on {site_id!r} returned "
                    f"{type(probed).__name__}"
                )
            versions.update(zip(oids, probed))
        return versions

    def put_back_cluster(self, root: object) -> dict[str, int]:
        """Push a whole cluster's state through its root's provider."""
        info = self._replica_record(root)
        members = cluster_ops.cluster_members(self, root)
        with self.tracer.span(
            "put_back_cluster", name=obi_id_of(root), members=len(members)
        ):
            package = build_put(self, members, info.provider.site_id)
            versions = self.endpoint.invoke(info.provider, "put", (package,))
            self._apply_versions(versions)
            self.sync_stats.add(puts_full=1)
            return versions

    def _apply_versions(self, versions: dict[str, int]) -> None:
        """Commit master-acknowledged versions onto the replica records."""
        with self._lock:
            for oid, version in versions.items():
                record = self._replicas.get(oid)
                if record is not None:
                    record.version = version

    def refresh(self, replica: object) -> object:
        """Re-fetch a replica's state from its master, updating in place
        (local changes are overwritten)."""
        cluster_ops.check_individually_updatable(self, replica)
        info = self._replica_record(replica)
        with self.tracer.span("refresh", name=obi_id_of(replica)):
            package = self.endpoint.invoke(
                info.provider, "get", (Incremental(1),)
            )
            refreshed = integrate_package(self, package)
            self.sync_stats.add(refreshes_full=1)
        self.events.publish("replica_refreshed", site=self, replica=refreshed)
        return refreshed

    def refresh_cluster(self, root: object) -> object:
        """Re-fetch a whole cluster through its root's provider.

        The counterpart of :meth:`put_back_cluster`: one get under the
        cluster's original mode refreshes the root and every member in
        place (cluster members cannot be individually refreshed).
        """
        info = self._replica_record(root)
        with self.tracer.span("refresh_cluster", name=obi_id_of(root)):
            package = self.endpoint.invoke(
                info.provider, "get", (info.mode,)
            )
            refreshed = integrate_package(self, package)
        self.events.publish("replica_refreshed", site=self, replica=refreshed)
        return refreshed

    def invoke_local(self, obj: object, method: str, *args: object, **kwargs: object) -> object:
        """Invoke a method on a local object, charging the LMI cost (2 µs).

        Plain attribute calls work too — this wrapper exists so simulated
        benchmarks account invocation time the way the paper measures it.
        """
        self.clock.advance(self.costs.local_invoke_s)
        return getattr(obj, method)(*args, **kwargs)

    def touch(self, master: object) -> int:
        """Announce a direct local modification of a master object.

        Masters are plain objects, so the middleware cannot observe the
        master site's own writes; version-based staleness detection
        (refresh, leases, reconciliation, transactions) only sees changes
        that arrive via ``put`` — or that the master application declares
        with ``touch``.  Returns the new version.
        """
        oid = obi_id_of(master)
        version = self.bump_master_version(oid)
        self.change_log.record(oid, version)
        return version

    def memory_footprint(self) -> int:
        """Approximate bytes of replica state held at this site.

        The info-appliance constraint the paper's evaluation closes on:
        "for info-appliances with reduced amount of free memory, when
        only a part of the objects are effectively needed, it is clearly
        advantageous to incrementally replicate a small number of
        objects".  Masters are excluded — they are the application's own
        data; this measures what replication added.  Each replica is
        costed on its *own* state, with references to other OBIWAN nodes
        counted as pointers rather than followed (every replica is
        already summed once).
        """
        with self._lock:
            records = list(self._replicas.values())
        return sum(_own_state_size(record.obj) for record in records)

    def evict(self, replica: object) -> None:
        """Drop replication bookkeeping for a replica (memory pressure on
        an info-appliance).  The object itself stays usable as a plain
        local object; it can no longer be put back or refreshed."""
        oid = obi_id_of(replica)
        with self._lock:
            self._replicas.pop(oid, None)

    # ------------------------------------------------------------------
    # causal tracing (obitrace, PR 5)
    # ------------------------------------------------------------------
    def enable_tracing(self, *, capacity: int | None = None) -> SpanCollector:
        """Start recording causal spans at this site; returns the collector.

        The tracer reads the site clock (simulated or wall, matching the
        transport) and is shared with the RMI endpoint, so replication
        verbs, fault resolution and invoke/serve round trips all land in
        one per-site :class:`~repro.obs.spans.SpanCollector`.  Calling it
        again keeps the existing collector (idempotent).
        """
        if self.tracer.enabled:
            return self.tracer.collector
        collector = (
            SpanCollector(capacity) if capacity is not None else SpanCollector()
        )
        tracer = Tracer(self.name, collector=collector, clock=self.clock.now)
        self.tracer = tracer
        self.endpoint.tracer = tracer
        return collector

    def disable_tracing(self) -> None:
        """Stop recording; the fault path reverts to shared no-op spans.
        An existing collector (and its spans) stays readable."""
        self.tracer = NULL_TRACER
        self.endpoint.tracer = NULL_TRACER

    @property
    def tracing_enabled(self) -> bool:
        return self.tracer.enabled

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    @property
    def naming(self):
        return self.endpoint.naming

    def _resolve_target(self, target: str | RemoteRef) -> RemoteRef:
        if isinstance(target, RemoteRef):
            return target
        if isinstance(target, str):
            return self.naming.lookup(target)
        raise ReplicationError(
            f"cannot replicate from target of type {type(target).__name__}; "
            "pass a bound name or a RemoteRef"
        )

    # ------------------------------------------------------------------
    # engine services (used by repro.core.replication / faults / cluster)
    # ------------------------------------------------------------------
    @property
    def registry(self):
        return self.endpoint.registry

    @property
    def clock(self) -> Clock:
        return self.endpoint.clock

    def ensure_provider_for(self, obj: object) -> tuple[RemoteRef, bool]:
        """Make sure ``obj`` has an exported proxy-in; returns (ref, created)."""
        oid = obi_id_of(obj)
        with self._lock:
            existing = self._provider_refs.get(oid)
            if existing is not None:
                return existing, False
            interface = interface_of(obj)
            proxy_in = ProxyIn(self, obj)
            ref = self.endpoint.export(proxy_in, interface=interface.name)
            self._provider_refs[oid] = ref
            if oid not in self._replicas:
                self._masters.setdefault(oid, MasterRecord(obj=obj))
        self.events.publish("provider_exported", site=self, oid=oid, ref=ref)
        return ref, True

    def drop_master(self, oid: str) -> bool:
        """Forget a master record entirely (reachability GC).

        Retracts the proxy-in too.  The Python object itself is
        unaffected — if the application still references it, it lives on
        as plain local state and can be re-exported later.
        """
        with self._lock:
            self._retract_provider_locked(oid)
            dropped = self._masters.pop(oid, None) is not None
        self.change_log.drop(oid)
        return dropped

    def iter_masters(self):
        """``(oid, record)`` pairs in registration order."""
        with self._lock:
            return iter(list(self._masters.items()))

    def exported_oids(self) -> list[str]:
        """Oids with a live proxy-in export: exported replicas (no master
        record) sorted by oid, then masters in registration order."""
        with self._lock:
            replicas = sorted(oid for oid in self._provider_refs if oid not in self._masters)
            return replicas + [oid for oid in self._masters if oid in self._provider_refs]

    def retract_provider(self, oid: str) -> bool:
        """Withdraw an object's proxy-in (distributed-GC reclamation).

        The master record survives — the object is still local state — but
        remote references to the old proxy-in die, exactly like Java RMI's
        "no such object in table" after a DGC lease expires.  A later
        ``ensure_provider_for`` exports a fresh proxy-in.
        """
        with self._lock:
            return self._retract_provider_locked(oid)

    def _retract_provider_locked(self, oid: str) -> bool:
        ref = self._provider_refs.pop(oid, None)
        if ref is None:
            return False
        self.endpoint.unexport(ref.object_id)
        return True

    def note_master(self, obj: object) -> None:
        """Record ``obj`` as mastered here without exporting a proxy-in.

        Cluster members stay proxy-in-less (the cluster shares its root's
        pair), but their master records must exist so a cluster ``put``
        can find them.
        """
        oid = obi_id_of(obj)
        with self._lock:
            if oid not in self._replicas:
                self._masters.setdefault(oid, MasterRecord(obj=obj))

    @snapshot_read
    def version_of(self, obj: object) -> int:
        oid = obi_id_of(obj)
        master = self._masters.get(oid)
        if master is not None:
            return master.version
        replica = self._replicas.get(oid)
        if replica is not None:
            return replica.version
        return 1

    @snapshot_read
    def is_master(self, oid: str) -> bool:
        return oid in self._masters

    @snapshot_read
    def is_replica(self, oid: str) -> bool:
        return oid in self._replicas

    @snapshot_read
    def has_exported(self, oid: str) -> bool:
        return oid in self._provider_refs

    @snapshot_read
    def master_object_for(self, oid: str) -> object | None:
        record = self._masters.get(oid)
        return record.obj if record is not None else None

    @snapshot_read
    def authorize(self, oid: str, method: str) -> None:
        """Check a remote ``method`` on master ``oid`` against the guard it
        was exported behind (see :meth:`export_guarded`).

        A ``put`` and a version probe name masters by oid and may arrive
        through *any* proxy-in of this site, so the receiving export's
        policy alone does not protect its neighbours: every oid is checked
        against its own export, for the caller being served.  Masters with
        no export of their own (cluster members, feed mirrors) stay
        governed by the proxy-in that received the call.
        """
        ref = self._provider_refs.get(oid)
        if ref is not None:
            authorize(self.endpoint.objects.get(ref.object_id), method)

    @snapshot_read
    def probe_versions(self, oids: Iterable[str]) -> list[int]:
        """The master versions of ``oids``, in order: a remote version probe.

        The probe stands in for one ``get_version`` per oid dispatched
        through that oid's own proxy-in, so each oid must have a live
        export here and pass its guard; the first that does not fails the
        whole probe with the error that dispatch would have raised.
        """
        versions = []
        for oid in oids:
            ref = self._provider_refs.get(oid)
            if ref is None or ref.object_id not in self.endpoint.objects:
                raise ProtocolError(f"no exported object for {oid!r} on site {self.name!r}")
            self.authorize(oid, "get_version")
            record = self._masters.get(oid)
            if record is None:
                raise ReplicationError(f"object {oid!r} is not mastered at site {self.name!r}")
            versions.append(record.version)
        return versions

    @snapshot_read
    def master_version(self, master: object) -> int:
        oid = obi_id_of(master)
        record = self._masters.get(oid)
        if record is None:
            raise ReplicationError(f"object is not mastered at site {self.name!r}")
        return record.version

    def bump_master_version(self, oid: str) -> int:
        with self._lock:
            record = self._masters.get(oid)
            if record is None:
                raise ReplicationError(f"no master {oid!r} at site {self.name!r}")
            record.version += 1
            version = record.version
        self.events.publish("put_applied", site=self, oid=oid, version=version)
        return version

    def adopt_master_version(self, oid: str, version: int) -> int:
        """Raise a mirrored master's version to at least ``version``.

        The feed-apply path: a follower mirrors the primary's version
        numbers instead of minting its own, so versions stay comparable
        across the group.  Monotonic (never lowers), publishes nothing —
        mirrored changes are not local writes.
        """
        with self._lock:
            record = self._masters.get(oid)
            if record is None:
                raise ReplicationError(f"no master {oid!r} at site {self.name!r}")
            if version > record.version:
                record.version = version
            return record.version

    def oid_for_export(self, object_id: str) -> str | None:
        """The obi id whose proxy-in is exported as ``object_id``, if any."""
        with self._lock:
            for oid, ref in self._provider_refs.items():
                if ref.object_id == object_id:
                    return oid
        return None

    # ------------------------------------------------------------------
    # change-feed roles (see repro.feed)
    # ------------------------------------------------------------------
    def feed_primary(self, *, epoch: int | None = None):
        """Attach (and return) a ``FeedPrimary`` role to this site."""
        from repro.feed.primary import FeedPrimary

        return FeedPrimary(self, epoch=epoch)

    def feed_follow(self, primary_site_id: str):
        """Attach a ``FeedFollower`` tailing ``primary_site_id``'s feed.

        Subscribes immediately — catching up incrementally when the
        primary's journal still covers our cursor, bootstrapping from a
        full snapshot otherwise — and returns the follower role.
        """
        from repro.feed.follower import FeedFollower

        follower = FeedFollower(self)
        follower.start(primary_site_id)
        return follower

    def close(self) -> None:
        """Leave the world: detach the feed role and the endpoint, and
        drop out of ``world.sites`` so the name can be created again.

        Nothing else holds a closed site, so it — and every replica it
        held — is collectable once the caller lets go.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self.feed_role is not None:
            self.feed_role.detach()
            self.feed_role = None
        self.endpoint.close()
        if self.world.sites.get(self.name) is self:
            del self.world.sites[self.name]

    @snapshot_read
    def local_object_for(self, oid: str) -> object | None:
        """The master or replica with this identity, if present here.

        The hot fault-path lookup: a snapshot read, lock-free by default.
        A miss is always re-checked under real synchronization (the
        demand path coalesces through :meth:`begin_demand`), so racing a
        concurrent registration at worst costs one extra round trip.
        """
        master = self._masters.get(oid)
        if master is not None:
            return master.obj
        replica = self._replicas.get(oid)
        if replica is not None:
            return replica.obj
        return None

    @snapshot_read
    def local_node_for(self, oid: str) -> object | None:
        """Like :meth:`local_object_for`, but also reuses pending proxies."""
        local = self.local_object_for(oid)
        if local is not None:
            return local
        return self._pending_proxies.get(oid)

    @snapshot_read
    def replica_info(self, oid: str) -> ReplicaRecord | None:
        return self._replicas.get(oid)

    def iter_replicas(self):
        """Replica records in registration order."""
        with self._lock:
            return iter(list(self._replicas.values()))

    def register_replica(self, obj: object, meta: ObjectMeta, mode: ReplicationMode) -> None:
        """Record a replica; re-registering one updates it in place."""
        oid = meta.obi_id
        with self._lock:
            existing = self._replicas.get(oid)
            if existing is None:
                self._replicas[oid] = ReplicaRecord(
                    obj=obj,
                    provider=meta.provider,
                    version=meta.version,
                    mode=mode,
                    cluster_root=meta.cluster_root,
                )
                return
            existing.obj = obj
            existing.version = meta.version
            existing.invalidated = False
            if meta.provider is not None:
                existing.provider = meta.provider
                existing.cluster_root = None

    def make_proxy_out(
        self, target_id: str, interface_name: str, provider: RemoteRef, mode: ReplicationMode
    ) -> ProxyOutBase:
        entry = compiled_registry.by_interface(interface_name)
        proxy = entry.proxy_out_cls(self, target_id, provider, entry.interface, mode)
        with self._lock:
            self._pending_proxies[target_id] = proxy
        self.gc_stats.track_created()
        return proxy

    def resolve_fault(self, proxy: ProxyOutBase) -> object:
        # fault_resolved publishes inside faults.resolve_fault, within the
        # fault span, so log subscribers see the trace context.
        return faults.resolve_fault(self, proxy)

    def finish_fault(self, proxy: ProxyOutBase, replica: object) -> None:
        with self._lock:
            self._pending_proxies.pop(proxy._obi_target_id, None)
        self.gc_stats.track_resolved(proxy)

    # ------------------------------------------------------------------
    # batched-demand fast path (used by repro.core.faults)
    # ------------------------------------------------------------------
    def begin_demand(self, target_id: str) -> tuple[bool, _InflightDemand]:
        """Claim the in-flight demand slot for ``target_id``.

        Returns ``(True, handle)`` when this caller leads the demand and
        must later call :meth:`finish_demand`; ``(False, handle)`` when
        another thread's demand is already on the wire — wait on
        ``handle.event`` and read ``handle.result`` / ``handle.error``.
        """
        with self._lock:
            existing = self._inflight_demands.get(target_id)
            if existing is not None:
                return False, existing
            handle = _InflightDemand()
            self._inflight_demands[target_id] = handle
            return True, handle

    def finish_demand(
        self,
        target_id: str,
        handle: _InflightDemand,
        *,
        result: object | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Release an in-flight demand slot and wake coalesced waiters."""
        with self._lock:
            self._inflight_demands.pop(target_id, None)
        handle.result = result
        handle.error = error
        handle.event.set()

    def pending_siblings(self, proxy: ProxyOutBase, *, limit: int) -> list[ProxyOutBase]:
        """Read-ahead candidates for a fault on ``proxy``.

        Unresolved pending proxies that share at least one demander with
        ``proxy`` (the same application object is holding both — the
        paper's frontier of one partial replica) and whose provider lives
        on the same site, so their demands can share the round trip.
        Ordered by target id for determinism; capped at ``limit``.
        """
        if limit <= 0:
            return []
        demander_ids = proxy._obi_demander_ids
        if not demander_ids:
            return []
        provider_site = proxy._obi_provider.site_id
        with self._lock:
            pending = sorted(self._pending_proxies.items())
        siblings: list[ProxyOutBase] = []
        for _target_id, candidate in pending:
            if candidate is proxy or candidate._obi_resolved is not None:
                continue
            if candidate._obi_provider.site_id != provider_site:
                continue
            if demander_ids & candidate._obi_demander_ids:
                siblings.append(candidate)
                if len(siblings) >= limit:
                    break
        return siblings

    # ------------------------------------------------------------------
    # cost charging
    # ------------------------------------------------------------------
    def charge_serialization(self, nbytes: int) -> None:
        self.clock.advance(nbytes * self.costs.serialize_per_byte_s)

    def charge_pairs(self, count: int) -> None:
        if count:
            self.clock.advance(count * self.costs.proxy_pair_create_s)

    def charge_pair_batch(self, count: int) -> None:
        """The superlinear burst penalty (see CostModel docs)."""
        if count > 1:
            self.clock.advance(count * count * self.costs.pair_batch_quadratic_s)

    def charge_replicas(self, count: int) -> None:
        if count:
            self.clock.advance(count * self.costs.replica_create_s)

    # ------------------------------------------------------------------
    # introspection helpers used by the engine's put path
    # ------------------------------------------------------------------
    def _replica_record(self, replica: object) -> ReplicaRecord:
        if not is_obiwan(replica):
            raise ReplicationError(f"{type(replica).__name__} is not an OBIWAN object")
        oid = obi_id_of(replica)
        with self._lock:
            record = self._replicas.get(oid)
        if record is None:
            raise ReplicationError(
                f"object {obi_id_of(replica)!r} is not a replica on site {self.name!r}"
            )
        if record.provider is None:
            raise ClusterError(
                "replica has no individual provider (cluster member); use the cluster root"
            )
        return record

    @snapshot_read
    def master_count(self) -> int:
        """Number of masters recorded at this site."""
        return len(self._masters)

    @snapshot_read
    def replica_count(self) -> int:
        """Number of registered replicas."""
        return len(self._replicas)

    @snapshot_read
    def pending_proxy_count(self) -> int:
        """Number of live unresolved proxies on this site."""
        return len(self._pending_proxies)

    def stripe_metrics(self) -> dict[str, int]:
        """Contention counters of the table lock."""
        return {"acquire_waits": self._lock.waits, "max_depth": self._lock.max_depth}

    @snapshot_read
    def __repr__(self) -> str:
        return (
            f"Site({self.name!r}, masters={self.master_count()}, "
            f"replicas={self.replica_count()})"
        )


class World:
    """A set of sites wired to one network and one name server."""

    def __init__(
        self,
        network: Network,
        *,
        costs: CostModel | None = None,
    ):
        self.network = network
        self.costs = costs if costs is not None else CostModel.calibrated_2002()
        self.sites: dict[str, Site] = {}
        self._nameserver_site: str | None = None

    # ------------------------------------------------------------------
    # constructors for the two transports
    # ------------------------------------------------------------------
    @classmethod
    def loopback(
        cls,
        *,
        link: Link = LAN_10MBPS,
        clock: Clock | None = None,
        costs: CostModel | None = None,
        seed: int | None = None,
    ) -> "World":
        """Deterministic simulated-time world (the benchmark default)."""
        network = LoopbackNetwork(
            clock if clock is not None else SimClock(), default_link=link, seed=seed
        )
        return cls(network, costs=costs)

    @classmethod
    def tcp(cls, *, link: Link = LAN_10MBPS, costs: CostModel | None = None) -> "World":
        """Localhost-TCP world — the closest analogue of RMI over a LAN,
        and the one wall-clock transport (pooled connections)."""
        network = TcpNetwork(WallClock(), default_link=link)
        return cls(network, costs=costs if costs is not None else CostModel.zero())

    # ------------------------------------------------------------------
    # site management
    # ------------------------------------------------------------------
    def create_site(self, name: str | None = None) -> Site:
        """Attach a new site; the first site created hosts the name server."""
        site_name = name if name is not None else new_site_id()
        if site_name in self.sites:
            raise ReplicationError(f"site {site_name!r} already exists in this world")
        endpoint = RmiEndpoint(
            self.network, site_name, nameserver_site=self._nameserver_site
        )
        if self._nameserver_site is None:
            endpoint.host_nameserver()
            self._nameserver_site = site_name
            # Earlier sites cannot exist (this is the first), so nothing to
            # retrofit; later sites get the pointer at construction.
        site = Site(self, site_name, endpoint)
        self.sites[site_name] = site
        return site

    @property
    def clock(self) -> Clock:
        return self.network.clock

    def close(self) -> None:
        self.network.close()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"World({type(self.network).__name__}, sites={sorted(self.sites)})"


def _commit_versions(
    acked: dict[str, int], sent: list[_WriteBack], versions: dict[str, int]
) -> None:
    """Record the master's new version of every replica sent, in
    ``versions`` and on its replica record; an omitted one is an error."""
    for item in sent:
        version = acked.get(item.oid)
        if version is None:
            raise UnknownReplicaError(
                f"master returned no version for {item.oid!r} after put"
            )
        item.record.version = versions[item.oid] = version


def _own_state_size(obj: object) -> int:
    """Bytes of one object's own state; OBIWAN references cost a pointer."""
    return sum(_value_size(value) for value in vars(obj).values())


def _value_size(value: object) -> int:
    from repro.core import graphwalk
    from repro.util.sizes import estimate_payload_size

    if graphwalk.is_node(value):
        return 8  # a reference, not the referent
    if isinstance(value, dict):
        return 8 + sum(_value_size(k) + _value_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(_value_size(item) for item in value)
    return estimate_payload_size(value)
