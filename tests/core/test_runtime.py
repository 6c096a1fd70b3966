"""Tests for Site and World runtime behaviour."""

import gc
import weakref

import pytest

from repro.core.costs import CostModel
from repro.core.interfaces import Incremental
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from repro.rmi.refs import RemoteRef
from repro.util.errors import NameNotFoundError, ReplicationError
from tests.models import Box, Chain, Counter


class TestWorld:
    def test_first_site_hosts_nameserver(self, zero_world):
        first = zero_world.create_site("first")
        second = zero_world.create_site("second")
        first.naming.rebind("x", RemoteRef("first", "obj:1"))
        assert second.naming.lookup("x").object_id == "obj:1"

    def test_duplicate_site_name_rejected(self, zero_world):
        zero_world.create_site("dup")
        with pytest.raises(ReplicationError):
            zero_world.create_site("dup")

    def test_auto_named_sites(self, zero_world):
        site = zero_world.create_site()
        assert site.name.startswith("site:")

    def test_world_clock_is_network_clock(self, zero_world):
        assert zero_world.clock is zero_world.network.clock

    def test_detached_site_is_collectable(self, zero_world):
        """Nothing may pin a closed site: a spent mobile site would
        otherwise keep every replica it ever held."""
        provider = zero_world.create_site("p")
        provider.export(Counter(5), name="counter")
        feed_site = zero_world.create_site("q")
        feed_site.export(Box("fed"), name="box")
        primary = feed_site.feed_primary()
        visitors = []
        for name in ("c1", "c2"):
            site = zero_world.create_site(name)
            site.replicate("counter")
            site.feed_follow("q")
            visitors.append(weakref.ref(site))
            site.close()
            site.close()  # idempotent
            assert name not in zero_world.sites
        del site
        gc.collect()
        assert [ref() for ref in visitors] == [None, None]
        # The names are free again, and the survivors keep serving.
        again = zero_world.create_site("c1")
        assert again.replicate("counter").read() == 5
        follower = again.feed_follow("q")
        assert follower.last_applied_serial == primary.site.change_log.latest_serial

    def test_close_detaches_the_feed_role(self, zero_world):
        provider = zero_world.create_site("p")
        provider.export(Counter(5), name="counter")
        primary = provider.feed_primary()
        provider.close()
        assert provider.feed_role is None and not primary.active
        assert provider.feed_stats.snapshot()["role"] == "none"
        assert "p" not in zero_world.network.sites

    def test_tcp_world_end_to_end(self):
        with World.tcp() as world:
            provider = world.create_site("p")
            consumer = world.create_site("c")
            master = Counter(7)
            provider.export(master, name="counter")
            replica = consumer.replicate("counter")
            assert replica.read() == 7
            replica.increment()
            consumer.put_back(replica)
            assert master.read() == 8


class TestExportAndNaming:
    def test_export_binds_name(self, zsites):
        provider, consumer = zsites
        provider.export(Box("v"), name="box")
        assert consumer.naming.lookup("box").interface == "IBox"

    def test_export_without_name(self, zsites):
        provider, consumer = zsites
        ref = provider.export(Box("anon"))
        replica = consumer.replicate(ref)
        assert replica.get() == "anon"

    def test_reexport_reuses_proxy_in(self, zsites):
        provider, _consumer = zsites
        box = Box()
        first = provider.export(box)
        second = provider.export(box, name="renamed")
        assert first == second

    def test_replicate_unknown_name(self, zsites):
        _provider, consumer = zsites
        with pytest.raises(NameNotFoundError):
            consumer.replicate("ghost")

    def test_replicate_bad_target_type(self, zsites):
        _provider, consumer = zsites
        with pytest.raises(ReplicationError):
            consumer.replicate(12345)  # type: ignore[arg-type]

    def test_remote_stub_uses_interface_methods(self, zsites):
        provider, consumer = zsites
        provider.export(Counter(3), name="counter")
        stub = consumer.remote_stub("counter")
        assert stub.read() == 3
        assert stub.increment() == 4
        assert not hasattr(stub, "get")  # not part of ICounter


class TestVersionsAndTouch:
    def test_master_version_starts_at_one(self, zsites):
        provider, _consumer = zsites
        box = Box()
        provider.export(box)
        assert provider.master_version(box) == 1

    def test_touch_bumps_version(self, zsites):
        provider, _consumer = zsites
        box = Box()
        provider.export(box)
        assert provider.touch(box) == 2
        assert provider.touch(box) == 3

    def test_touch_unexported_fails(self, zsites):
        provider, _consumer = zsites
        with pytest.raises(ReplicationError):
            provider.touch(Box())

    def test_replica_records_master_version(self, zsites):
        provider, consumer = zsites
        box = Box()
        provider.export(box, name="box")
        provider.touch(box)
        replica = consumer.replicate("box")
        info = consumer.replica_info(obi_id_of(replica))
        assert info.version == 2


class TestRefresh:
    def test_refresh_keeps_the_replica_mode_on_new_frontier_proxies(self, zsites):
        provider, consumer = zsites
        head = Chain(0, Chain(1))
        provider.export(head, name="a")
        mode = Incremental(1, depth=3)
        replica = consumer.replicate("a", mode=mode)
        head.set_next(Chain(2))  # re-point a.next on the master
        provider.touch(head)
        consumer.refresh(replica)
        fresh = vars(replica)["next"]
        assert isinstance(fresh, ProxyOutBase)
        assert fresh._obi_mode == mode
        assert consumer.replica_info(obi_id_of(replica)).mode == mode
        assert fresh.get_index() == 2


class TestCostCharging:
    def test_invoke_local_charges_lmi(self):
        world = World.loopback()  # calibrated costs
        provider = world.create_site("p")
        consumer = world.create_site("c")
        provider.export(Counter(), name="counter")
        replica = consumer.replicate("counter")
        before = world.clock.now()
        consumer.invoke_local(replica, "read")
        assert world.clock.now() - before == pytest.approx(2e-6)

    def test_zero_cost_model_charges_nothing_for_lmi(self, zsites):
        provider, consumer = zsites
        provider.export(Counter(), name="counter")
        replica = consumer.replicate("counter")
        before = consumer.clock.now()
        consumer.invoke_local(replica, "read")
        assert consumer.clock.now() == before

    def test_replication_charges_simulated_time(self):
        world = World.loopback()
        provider = world.create_site("p")
        consumer = world.create_site("c")
        provider.export(Box("payload"), name="box")
        before = world.clock.now()
        consumer.replicate("box")
        elapsed = world.clock.now() - before
        # At least two round trips (lookup + get) plus CPU costs.
        assert elapsed > 5e-3


class TestEviction:
    def test_evicted_replica_loses_bookkeeping(self, zsites):
        provider, consumer = zsites
        provider.export(Box("v"), name="box")
        replica = consumer.replicate("box")
        consumer.evict(replica)
        assert consumer.replica_info(obi_id_of(replica)) is None
        with pytest.raises(ReplicationError):
            consumer.put_back(replica)

    def test_evicted_object_still_usable_locally(self, zsites):
        provider, consumer = zsites
        provider.export(Box("v"), name="box")
        replica = consumer.replicate("box")
        consumer.evict(replica)
        assert replica.get() == "v"

    def test_replicate_after_evict_makes_fresh_replica(self, zsites):
        provider, consumer = zsites
        provider.export(Box("v"), name="box")
        replica = consumer.replicate("box")
        consumer.evict(replica)
        again = consumer.replicate("box")
        assert consumer.replica_info(obi_id_of(again)) is not None


class TestCostModel:
    def test_calibrated_matches_defaults(self):
        assert CostModel.calibrated_2002() == CostModel()

    def test_zero_zeroes_everything(self):
        zero = CostModel.zero()
        assert zero.local_invoke_s == 0
        assert zero.serialize_per_byte_s == 0
        assert zero.proxy_pair_create_s == 0
        assert zero.pair_batch_quadratic_s == 0
        assert zero.replica_create_s == 0
