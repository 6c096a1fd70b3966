"""Tests for lease-based distributed GC of proxies-in."""

import pytest

from repro.core.dgc import DEFAULT_LEASE, DgcClient, DgcServer
from repro.core.interfaces import Incremental
from repro.core.meta import obi_id_of
from repro.util.errors import ProtocolError
from tests.models import Box, make_chain


@pytest.fixture
def dgc_world(zero_world):
    provider = zero_world.create_site("provider")
    consumer = zero_world.create_site("consumer")
    server = DgcServer(provider, lease_duration=10.0)
    client = DgcClient(consumer)
    return zero_world, provider, consumer, server, client


class TestLeases:
    def test_renew_covers_replicas_and_pending_proxies(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        head = make_chain(3)
        provider.export(head, name="chain")
        server.pin(head)
        replica = consumer.replicate("chain", mode=Incremental(1))
        renewed = client.renew()
        # The replica of head plus the pending proxy for node 1.
        assert renewed == {"provider": 2}
        assert server.holders_of(head) == ["consumer"]

    def test_leases_keep_proxy_ins_alive(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        box = Box("v")
        provider.export(box, name="box")
        server.pin(box)
        replica = consumer.replicate("box")
        client.renew()
        world.clock.advance(15.0)  # past grace and past the first lease
        client.renew()  # but renewed again in time? (lease was 10s)
        world.clock.advance(5.0)
        report = server.collect()
        assert report.reclaimed == []
        consumer.refresh(replica)  # provider still answers

    def test_lapsed_lease_reclaims_proxy_in(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        box = Box("v")
        provider.export(box, name="box")
        server.pin(box)
        replica = consumer.replicate("box")
        oid = obi_id_of(replica)
        # The replica's own proxy-in (same object here, pinned) aside,
        # use an unpinned secondary object:
        extra = Box("extra")
        ref = provider.export(extra)
        consumer.replicate(ref)
        client.renew()
        world.clock.advance(DEFAULT_LEASE)  # way past everything
        report = server.collect()
        assert obi_id_of(extra) in report.reclaimed
        assert oid not in report.reclaimed  # pinned

    def test_stale_remote_ref_after_reclaim_fails_cleanly(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        extra = Box("doomed")
        ref = provider.export(extra)
        replica = consumer.replicate(ref)
        world.clock.advance(100.0)  # no renewals
        server.collect()
        with pytest.raises(ProtocolError):
            consumer.refresh(replica)

    def test_reexport_after_reclaim_gets_fresh_proxy_in(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        extra = Box("phoenix")
        old_ref = provider.export(extra)
        world.clock.advance(100.0)
        server.collect()
        assert not provider.has_exported(obi_id_of(extra))
        new_ref, created = provider.ensure_provider_for(extra)
        assert created
        # A fresh proxy-in, exported under the same oid: the old ref
        # serves again.
        assert new_ref == old_ref
        replica = consumer.replicate(old_ref)
        assert replica.get() == "phoenix"


class TestGraceAndPinning:
    def test_fresh_exports_survive_one_grace_period(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        box = Box("fresh")
        provider.export(box)
        world.clock.advance(5.0)  # inside the 10 s grace
        report = server.collect()
        assert report.reclaimed == []
        assert report.live == 1

    def test_pinned_objects_never_reclaimed(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        box = Box("pinned")
        provider.export(box, name="box")
        server.pin(box)
        world.clock.advance(10_000.0)
        report = server.collect()
        assert report.reclaimed == []
        assert report.pinned == 1
        server.unpin(box)
        report = server.collect()
        assert report.reclaimed == [obi_id_of(box)]


class TestOfflineConsumers:
    def test_offline_consumer_leases_lapse(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        box = Box("v")
        ref = provider.export(box)
        consumer.replicate(ref)
        client.renew()
        world.network.disconnect("consumer")
        assert client.renew() == {}  # unreachable provider skipped
        world.clock.advance(100.0)
        report = server.collect()
        assert report.reclaimed == [obi_id_of(box)]

    def test_release_cleans_immediately(self, dgc_world):
        world, provider, consumer, server, client = dgc_world
        box = Box("v")
        ref = provider.export(box)
        replica = consumer.replicate(ref)
        client.renew()
        assert server.holders_of(box) == ["consumer"]
        client.release(replica)
        assert server.holders_of(box) == []
        assert consumer.replica_info(obi_id_of(replica)) is None


class TestValidation:
    def test_lease_duration_must_be_positive(self, zero_world):
        site = zero_world.create_site("p")
        with pytest.raises(ValueError):
            DgcServer(site, lease_duration=0)
