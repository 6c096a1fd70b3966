"""Tests for the batched demand & prefetching fault fast path (PR 2).

Round trips are counted from the loopback network stats (one request
message consumer→provider per demand), so these are end-to-end checks of
the resolver, not of its counters alone.
"""

import math
import threading

import pytest

import repro.core.faults as faults
from repro.core.interfaces import Incremental, ReplicationMode
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import global_registry
from tests.models import Box, Folder, chain_indices, make_chain


def _requests(site):
    """Request messages this consumer has sent to provider S2 so far."""
    return site.world.network.stats.link("S1", "S2").messages


class TestChainPrefetch:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_chain_walk_takes_ceil_n_over_k_round_trips(self, zsites, k):
        provider, consumer = zsites
        n = 41
        provider.export(make_chain(n), name="chain")
        head = consumer.replicate("chain", mode=Incremental(1, prefetch=k))
        before = _requests(consumer)
        assert chain_indices(head) == list(range(n))
        trips = _requests(consumer) - before
        assert trips == math.ceil((n - 1) / k)
        assert consumer.fault_stats.demands_batched == trips
        assert consumer.fault_stats.prefetch_hits == (n - 1) - trips

    def test_prefetch_unset_round_trips_match_seed_behavior(self, zsites):
        provider, consumer = zsites
        n = 12
        provider.export(make_chain(n), name="chain")
        head = consumer.replicate("chain", mode=Incremental(1))
        before = _requests(consumer)
        assert chain_indices(head) == list(range(n))
        # The paper's protocol: one demand round trip per remaining node.
        assert _requests(consumer) - before == n - 1
        assert consumer.fault_stats.demands_batched == 0
        assert consumer.fault_stats.prefetch_hits == 0

    def test_prefetch_not_larger_than_chunk_never_widens(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(9), name="chain")
        head = consumer.replicate("chain", mode=Incremental(4, prefetch=2))
        before = _requests(consumer)
        assert chain_indices(head) == list(range(9))
        # chunk 4 already covers the read-ahead: same trips as plain chunk 4.
        assert _requests(consumer) - before == 2
        assert consumer.fault_stats.prefetch_hits == 0

    def test_prefetched_members_individually_updatable(self, zsites):
        """Per-object-pair semantics survive the widened demand: a member
        that arrived as read-ahead has its own provider pair and can be
        put back on its own."""
        provider, consumer = zsites
        provider.export(make_chain(10), name="chain")
        head = consumer.replicate("chain", mode=Incremental(1, prefetch=4))
        assert chain_indices(head) == list(range(10))
        node = head
        for _ in range(3):  # index 3 arrived as read-ahead, never faulted
            node = node.get_next()
        assert not isinstance(node, ProxyOutBase)
        node.set_index(99)
        consumer.put_back(node)
        master = provider.master_object_for(obi_id_of(node))
        assert master.get_index() == 99


class TestSiblingBatching:
    def test_sibling_faults_share_one_round_trip(self, zsites):
        provider, consumer = zsites
        folder = Folder("root")
        for i in range(5):
            folder.add(f"k{i}", Box(i))
        provider.export(folder, name="root")
        replica = consumer.replicate("root", mode=Incremental(1, prefetch=8))
        before = _requests(consumer)
        assert replica.child("k0").get() == 0
        # One batched round trip resolved every pending sibling too.
        assert _requests(consumer) - before == 1
        for i in range(5):
            child = replica.child(f"k{i}")
            assert not isinstance(child, ProxyOutBase)
            assert child.get() == i
        assert consumer.fault_stats.demands_batched == 1
        assert consumer.fault_stats.prefetch_hits >= 4

    def test_sibling_cap_respects_prefetch_limit(self, zsites):
        provider, consumer = zsites
        folder = Folder("root")
        for i in range(6):
            folder.add(f"k{i}", Box(i))
        provider.export(folder, name="root")
        replica = consumer.replicate("root", mode=Incremental(1, prefetch=2))
        before = _requests(consumer)
        replica.child("k0").get()
        assert _requests(consumer) - before == 1
        resolved = sum(
            not isinstance(replica.child(f"k{i}"), ProxyOutBase) for i in range(6)
        )
        # The target plus at most `prefetch` piggybacked siblings.
        assert resolved == 3


class TestCoalescing:
    def test_concurrent_faults_on_one_target_coalesce(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(3), name="chain")
        head = consumer.replicate("chain")
        proxy = head.next
        assert isinstance(proxy, ProxyOutBase)

        release = threading.Event()
        real = faults._invoke_demand

        def slow_invoke(site, prx, mode):
            release.wait(5.0)
            return real(site, prx, mode)

        faults._invoke_demand = slow_invoke
        try:
            results = []
            threads = [
                threading.Thread(target=lambda: results.append(proxy.get_index()))
                for _ in range(2)
            ]
            threads[0].start()
            # Wait for the leader to register its in-flight demand.
            for _ in range(500):
                target_id = proxy._obi_target_id
                if target_id in consumer._inflight_demands:
                    break
                threading.Event().wait(0.01)
            threads[1].start()
            for _ in range(500):
                if consumer.fault_stats.coalesced_faults:
                    break
                threading.Event().wait(0.01)
            release.set()
            for t in threads:
                t.join(5.0)
        finally:
            faults._invoke_demand = real

        assert results == [1, 1]
        assert consumer.fault_stats.coalesced_faults == 1
        assert consumer.gc_stats.faults_resolved == 1

    def test_leader_error_propagates_to_followers(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(3), name="chain")
        head = consumer.replicate("chain")
        proxy = head.next
        target_id = proxy._obi_target_id

        leader, handle = consumer.begin_demand(target_id)
        assert leader
        errors = []

        def follower():
            try:
                consumer.resolve_fault(proxy)
            except RuntimeError as exc:
                errors.append(exc)

        t = threading.Thread(target=follower)
        t.start()
        for _ in range(500):
            if consumer.fault_stats.coalesced_faults:
                break
            threading.Event().wait(0.01)
        consumer.finish_demand(target_id, handle, error=RuntimeError("boom"))
        t.join(5.0)
        assert len(errors) == 1


class TestModeWireFormat:
    """The mode is always the 3-tuple: ``prefetch`` is the consumer's own
    scheduling and never travels (the demand carries the widened scope)."""

    def test_prefetch_zero_keeps_legacy_three_tuple(self):
        entry = global_registry.lookup_class(ReplicationMode)
        assert entry.get_state(Incremental(5)) == (5, 0, False)

    def test_prefetch_never_travels(self):
        entry = global_registry.lookup_class(ReplicationMode)
        assert entry.get_state(Incremental(5, prefetch=16)) == (5, 0, False)

    def test_legacy_three_tuple_decodes(self):
        """The one wire shape decodes to a mode with no read-ahead."""
        entry = global_registry.lookup_class(ReplicationMode)
        mode = entry.factory()
        entry.set_state(mode, (3, 2, False))
        assert mode == ReplicationMode(chunk=3, depth=2)
        assert mode.prefetch == 0

    def test_prefetch_zero_frames_byte_identical_to_legacy(self):
        encoder = Encoder()
        legacy_like = encoder.encode(ReplicationMode(chunk=7, depth=1))
        assert encoder.encode(Incremental(7, depth=1)) == legacy_like
        assert encoder.encode(Incremental(7, depth=1, prefetch=9)) == legacy_like
        roundtrip = Decoder().decode(encoder.encode(Incremental(7, prefetch=9)))
        assert roundtrip == Incremental(7)
        assert roundtrip.prefetch == 0

    def test_demand_mode_is_37_bytes_and_the_package_carries_none(self, zsites):
        """A demand request's mode costs the same whatever its prefetch,
        and the package answering it echoes no mode back."""
        provider, consumer = zsites
        sent, packages = [], []
        real = faults._invoke_demand

        def recording(site, proxy, scope):
            sent.append(scope)
            packages.append(real(site, proxy, scope))
            return packages[-1]

        for prefetch in (0, 4, 64):
            ref = provider.export(make_chain(12), name=f"chain{prefetch}")
            head = consumer.replicate(ref, mode=Incremental(1, prefetch=prefetch))
            faults._invoke_demand = recording
            try:
                head.get_next().get_index()
            finally:
                faults._invoke_demand = real
        assert [len(Encoder().encode(scope)) for scope in sent] == [37, 37, 37]
        assert not any(hasattr(package, "mode") for package in packages)
        # The widened scope alone tells the provider how far to walk.
        assert provider.endpoint.objects.get(ref.object_id).demand(sent[-1]).object_count == 12

    def test_demand_scope_widens_only_when_useful(self):
        assert Incremental(1, prefetch=8).demand_scope().chunk == 8
        assert Incremental(8, prefetch=4).demand_scope().chunk == 8
        from repro.core.interfaces import Cluster, Transitive

        cluster = ReplicationMode(chunk=2, clustered=True, prefetch=8)
        assert cluster.demand_scope() is cluster
        assert Cluster(size=4).demand_scope().chunk == 4
        assert Transitive().demand_scope().chunk == 0


class TestSerializerReuse:
    def test_build_put_constructs_one_encoder_per_package(self, zsites, monkeypatch):
        import repro.core.replication as replication

        provider, consumer = zsites
        provider.export(make_chain(6), name="chain")
        from repro.core.interfaces import Cluster

        head = consumer.replicate("chain", mode=Cluster(size=6))
        constructed = []
        real = replication.Encoder

        class CountingEncoder(real):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(replication, "Encoder", CountingEncoder)
        consumer.put_back_cluster(head)
        assert len(constructed) == 1

    def test_apply_put_constructs_one_decoder_per_package(self, zsites, monkeypatch):
        import repro.core.replication as replication

        provider, consumer = zsites
        provider.export(make_chain(6), name="chain")
        from repro.core.interfaces import Cluster

        head = consumer.replicate("chain", mode=Cluster(size=6))
        constructed = []
        real = replication.Decoder

        class CountingDecoder(real):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(replication, "Decoder", CountingDecoder)
        consumer.put_back_cluster(head)
        assert len(constructed) == 1
