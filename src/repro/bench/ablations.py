"""Ablation studies beyond the paper (DESIGN.md experiments A1–A4).

The paper's evaluation motivates three design choices — per-object proxy
pairs, demand-driven faulting, and programmer-chosen consistency — and
one engineering claim (the middleware is transport-agnostic).  Each
ablation isolates one of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.workloads import ListSpec, make_linked_list
from repro.core.interfaces import Cluster, Incremental
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World


# ----------------------------------------------------------------------
# A1: proxy-pair overhead, isolated
# ----------------------------------------------------------------------
@dataclass
class ProxyAblationRow:
    chunk: int
    per_object_ms: float
    clustered_ms: float
    pairs_per_object_mode: int
    pairs_cluster_mode: int

    @property
    def overhead_ratio(self) -> float:
        return self.per_object_ms / self.clustered_ms


def ablate_proxy_pairs(
    *, length: int = 1000, object_size: int = 64, chunks: tuple[int, ...] = (10, 100, 1000)
) -> list[ProxyAblationRow]:
    """Same fetch schedule, with and without per-object pairs.

    Everything else — bytes moved, RTTs, replica creation — is identical,
    so the difference is the cost of individually-updatable replicas.
    """
    rows = []
    for chunk in chunks:
        per_object = _timed_fetch(length, object_size, Incremental(chunk))
        clustered = _timed_fetch(length, object_size, Cluster(size=chunk))
        rows.append(
            ProxyAblationRow(
                chunk=chunk,
                per_object_ms=per_object[0],
                clustered_ms=clustered[0],
                pairs_per_object_mode=per_object[1],
                pairs_cluster_mode=clustered[1],
            )
        )
    return rows


def _timed_fetch(length: int, object_size: int, mode) -> tuple[float, int]:
    world = World.loopback()
    provider = world.create_site("S2")
    consumer = world.create_site("S1")
    provider.export(make_linked_list(ListSpec(length, object_size)), name="list")
    start = world.clock.now()
    node = consumer.replicate("list", mode=mode)
    pairs = consumer.gc_stats.proxies_created
    while node is not None:
        node = node.get_next()
        if isinstance(node, ProxyOutBase) and node._obi_resolved is not None:
            node = node._obi_resolved
    pairs = max(pairs, consumer.gc_stats.proxies_created)
    return (world.clock.now() - start) * 1e3, pairs


# ----------------------------------------------------------------------
# A2: prefetching vs demand-driven faulting
# ----------------------------------------------------------------------
@dataclass
class PrefetchAblation:
    demand_total_ms: float
    demand_worst_invocation_ms: float
    prefetch_total_ms: float
    prefetch_worst_invocation_ms: float

    @property
    def latency_eliminated(self) -> bool:
        """The paper's footnote: perfect prefetching removes fault latency
        from the invocation path entirely."""
        return self.prefetch_worst_invocation_ms < self.demand_worst_invocation_ms / 100


def ablate_prefetch(*, length: int = 200, object_size: int = 1024, chunk: int = 10) -> PrefetchAblation:
    """Traverse a list demand-driven vs fully prefetched."""
    from repro.mobility.hoard import Hoard

    # Demand-driven: faults interleave with invocations.
    world = World.loopback()
    provider = world.create_site("S2")
    consumer = world.create_site("S1")
    provider.export(make_linked_list(ListSpec(length, object_size)), name="list")
    start = world.clock.now()
    node = consumer.replicate("list", mode=Incremental(chunk))
    demand_worst = 0.0
    while node is not None:
        before = world.clock.now()
        consumer.invoke_local(node, "get_index")
        demand_worst = max(demand_worst, world.clock.now() - before)
        node = _step(node, consumer)
    demand_total = world.clock.now() - start

    # Prefetched: background resolution first, pure LMI afterwards.
    world = World.loopback()
    provider = world.create_site("S2")
    consumer = world.create_site("S1")
    provider.export(make_linked_list(ListSpec(length, object_size)), name="list")
    root = consumer.replicate("list", mode=Incremental(chunk))
    Hoard(consumer).prefetch(root)
    start = world.clock.now()
    node = root
    prefetch_worst = 0.0
    while node is not None:
        before = world.clock.now()
        consumer.invoke_local(node, "get_index")
        prefetch_worst = max(prefetch_worst, world.clock.now() - before)
        node = _step(node, consumer)
    prefetch_total = world.clock.now() - start

    return PrefetchAblation(
        demand_total_ms=demand_total * 1e3,
        demand_worst_invocation_ms=demand_worst * 1e3,
        prefetch_total_ms=prefetch_total * 1e3,
        prefetch_worst_invocation_ms=prefetch_worst * 1e3,
    )


def _step(node: object, consumer) -> object:
    node = consumer.invoke_local(node, "get_next")
    if isinstance(node, ProxyOutBase) and node._obi_resolved is not None:
        node = node._obi_resolved
    return node


# ----------------------------------------------------------------------
# A3: consistency protocol cost
# ----------------------------------------------------------------------
@dataclass
class ConsistencyAblationRow:
    protocol: str
    total_ms: float
    network_bytes: int
    stale_reads: int


def ablate_consistency(
    *, writes: int = 50, reads_per_write: int = 5
) -> list[ConsistencyAblationRow]:
    """One writer site, one reader site, under four regimes.

    * ``poll`` — reader refreshes before every read (strong, chatty);
    * ``invalidation`` — reader refreshes only after an invalidation;
    * ``lease`` — reader trusts its replica for a lease window;
    * ``epidemic`` — master pushes every update, reads are always local.
    """
    from repro.bench.workloads import PayloadNode
    from repro.consistency import (
        InvalidationConsumer,
        InvalidationMaster,
        LeaseConsistency,
        ReadPolicy,
        UpdateDisseminator,
        UpdateSubscriber,
    )

    rows: list[ConsistencyAblationRow] = []

    def setup():
        world = World.loopback()
        master_site = world.create_site("M")
        writer = world.create_site("W")
        reader = world.create_site("R")
        node = PayloadNode(index=0, payload=b"x" * 256)
        master_site.export(node, name="obj")
        writer_replica = writer.replicate("obj")
        reader_replica = reader.replicate("obj")
        return world, master_site, writer, reader, writer_replica, reader_replica

    def drive(world, writer, reader, writer_replica, reader_replica, read_fn, after_write_fn=None):
        stale = 0
        start = world.clock.now()
        for i in range(1, writes + 1):
            writer_replica.index = i
            writer.put_back(writer_replica)
            if after_write_fn is not None:
                after_write_fn()
            for _ in range(reads_per_write):
                value = read_fn()
                if value != i:
                    stale += 1
        return (world.clock.now() - start) * 1e3, stale

    # poll
    world, _m, writer, reader, wr, rr = setup()
    bytes_before = world.network.stats.total_bytes

    def poll_read():
        reader.refresh(rr)
        return reader.invoke_local(rr, "get_index")

    total, stale = drive(world, writer, reader, wr, rr, poll_read)
    rows.append(
        ConsistencyAblationRow(
            "poll", total, world.network.stats.total_bytes - bytes_before, stale
        )
    )

    # invalidation
    world, master_site, writer, reader, wr, rr = setup()
    InvalidationMaster.export_on(master_site)
    consumer = InvalidationConsumer(reader, policy=ReadPolicy.REFRESH)
    consumer.track(rr)
    bytes_before = world.network.stats.total_bytes

    def inval_read():
        fresh = consumer.read(rr)
        return reader.invoke_local(fresh, "get_index")

    total, stale = drive(world, writer, reader, wr, rr, inval_read)
    rows.append(
        ConsistencyAblationRow(
            "invalidation", total, world.network.stats.total_bytes - bytes_before, stale
        )
    )

    # lease (short lease => bounded staleness)
    world, _m, writer, reader, wr, rr = setup()
    lease = LeaseConsistency(reader, duration=0.050, policy=ReadPolicy.REFRESH)
    lease.track(rr)
    bytes_before = world.network.stats.total_bytes

    def lease_read():
        fresh = lease.read(rr)
        return reader.invoke_local(fresh, "get_index")

    total, stale = drive(world, writer, reader, wr, rr, lease_read)
    rows.append(
        ConsistencyAblationRow(
            "lease-50ms", total, world.network.stats.total_bytes - bytes_before, stale
        )
    )

    # epidemic
    world, master_site, writer, reader, wr, rr = setup()
    UpdateDisseminator.export_on(master_site)
    subscriber = UpdateSubscriber(reader)
    subscriber.track(rr)
    bytes_before = world.network.stats.total_bytes

    def epidemic_read():
        return reader.invoke_local(rr, "get_index")

    total, stale = drive(world, writer, reader, wr, rr, epidemic_read)
    rows.append(
        ConsistencyAblationRow(
            "epidemic", total, world.network.stats.total_bytes - bytes_before, stale
        )
    )
    return rows


# ----------------------------------------------------------------------
# A4: transport sanity
# ----------------------------------------------------------------------
@dataclass
class TransportAblationRow:
    transport: str
    wall_seconds: float
    traversal_sum: int
    correct: bool


def ablate_transport(*, length: int = 50, object_size: int = 256) -> list[TransportAblationRow]:
    """The same workload on both transports must agree bit-for-bit."""
    expected = length * (length - 1) // 2
    rows = []
    for name, factory in (
        ("loopback-sim", World.loopback),
        ("tcp", World.tcp),
    ):
        world = factory()
        try:
            provider = world.create_site("S2")
            consumer = world.create_site("S1")
            provider.export(make_linked_list(ListSpec(length, object_size)), name="list")
            wall_start = time.perf_counter()  # obilint: disable=OBI108 -- the transport ablation compares true wall time across transports
            node = consumer.replicate("list", mode=Incremental(10))
            total = 0
            while node is not None:
                total += node.get_index()
                node = _step(node, consumer)
            wall = time.perf_counter() - wall_start  # obilint: disable=OBI108 -- the transport ablation compares true wall time across transports
            rows.append(TransportAblationRow(name, wall, total, total == expected))
        finally:
            world.close()
    return rows
