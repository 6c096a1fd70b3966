"""Tests for site telemetry snapshots."""

from repro.core.interfaces import Cluster, Incremental
from repro.core.striping import DEFAULT_STRIPES
from repro.core.telemetry import snapshot
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
    provider, consumer = zsites
    provider.export(Box("v"), name="box")
    consumer.replicate("box")
    snap = snapshot(consumer)
    assert snap.stripe_count == DEFAULT_STRIPES
    text = snap.render()
    assert f"stripes : {DEFAULT_STRIPES} stripes" in text
    assert "acquire waits" in text
    assert "max depth" in text
    # The stripes line slots in without disturbing the sync line.
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
