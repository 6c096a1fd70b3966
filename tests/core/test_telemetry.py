"""Tests for site telemetry snapshots."""

import sys
import threading

from repro.core.interfaces import Cluster, Incremental
from repro.core.telemetry import snapshot
from repro.util.clock import WallClock
from tests.models import Box, make_chain


def test_empty_site_snapshot(zsites):
    provider, _consumer = zsites
    snap = snapshot(provider)
    assert snap.site == "S2"
    assert snap.masters == 0
    assert snap.replicas == 0
    # S2 hosts the name server (first site of the fixture world).
    assert snap.exported_objects == 1


def test_counts_after_replication(zsites):
    provider, consumer = zsites
    provider.export(make_chain(6), name="chain")
    head = consumer.replicate("chain", mode=Incremental(2))

    provider_snap = snapshot(provider)
    assert provider_snap.masters >= 2  # head + frontier got providers

    consumer_snap = snapshot(consumer)
    assert consumer_snap.replicas == 2
    assert consumer_snap.individually_updatable == 2
    assert consumer_snap.pending_proxies == 1
    assert consumer_snap.bytes_sent > 0
    assert consumer_snap.bytes_received > consumer_snap.bytes_sent  # payloads


def test_cluster_membership_counted(zsites):
    provider, consumer = zsites
    provider.export(make_chain(8), name="chain")
    consumer.replicate("chain", mode=Cluster(size=4))
    snap = snapshot(consumer)
    assert snap.replicas == 4
    assert snap.cluster_members == 3
    assert snap.individually_updatable == 1


def test_fault_counters(zsites):
    provider, consumer = zsites
    provider.export(make_chain(6), name="chain")
    head = consumer.replicate("chain", mode=Incremental(2))
    head.get_next().get_next().get_index()  # one fault (brings 2,3 + proxy 4)
    snap = snapshot(consumer)
    assert snap.proxies_created == 2
    assert snap.faults_resolved == 1
    assert snap.pending_proxies == 1


def test_render_is_human_readable(zsites):
    provider, consumer = zsites
    provider.export(Box("v"), name="box")
    consumer.replicate("box")
    text = snapshot(consumer).render()
    assert "site S1" in text
    assert "replicas" in text
    assert "traffic" in text


def test_stripes_line_in_render(zsites):
    """The table lock's contention line: no waits single-threaded, and a
    reentrant acquire shows as depth."""
    provider, consumer = zsites
    provider.export(Box("v"), name="box")
    consumer.replicate("box")
    snap = snapshot(consumer)
    assert snap.stripe_acquire_waits == 0
    assert snap.stripe_max_depth >= 1
    text = snap.render()
    assert f"lock    : 0 acquire waits, max depth {snap.stripe_max_depth}" in text
    # The lock line slots in without disturbing the sync line.
    assert "sync    : 0 puts, 0 refreshes" in text


def test_tracing_line_off_by_default(zsites):
    _provider, consumer = zsites
    snap = snapshot(consumer)
    assert snap.tracing_enabled is False
    assert snap.spans_recorded == 0
    assert "tracing : off" in snap.render()


def test_tracing_counters_when_enabled(zsites):
    provider, consumer = zsites
    collector = consumer.enable_tracing()
    provider.export(Box("v"), name="box")
    consumer.replicate("box")

    snap = snapshot(consumer)
    stats = collector.stats()
    assert snap.tracing_enabled is True
    assert snap.spans_recorded == stats["recorded"] > 0
    assert snap.spans_dropped == 0
    assert snap.span_high_water == stats["high_water"]
    text = snap.render()
    assert "tracing : on" in text
    assert f"{stats['recorded']} spans recorded" in text


def test_snapshot_while_senders_add_links(zsites):
    """A sender adding a link mid-snapshot must not break the traffic walk.

    Senders insert into the network's per-link table under its lock; a
    snapshot that walked the table without that lock raised "dictionary
    changed size during iteration" on most of these snapshots.
    """
    provider, _consumer = zsites
    stats = provider.world.network.stats
    stop = threading.Event()

    def sender():
        # New links keep arriving; clearing every 500 keeps the walk short.
        i = 0
        while not stop.is_set():
            stats.record(f"s{i}", provider.name, 1, 0.0)
            i += 1
            if i % 500 == 0:
                stats.reset()

    failures = 0
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    clock = WallClock()
    try:
        start = clock.now()
        for _ in range(2000):
            try:
                snapshot(provider)
            except RuntimeError:
                failures += 1
            if clock.elapsed_since(start) > 5.0:
                break
    finally:
        stop.set()
        thread.join(timeout=5)
        sys.setswitchinterval(previous)
    assert failures == 0
    assert snapshot(provider).messages_received == stats.site_totals(provider.name)["messages_received"]
