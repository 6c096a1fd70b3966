"""Tests for object-fault resolution and updateMember splicing.

Round trips are counted from the loopback network stats (one request
message consumer→provider per demand), so these are end-to-end checks of
the resolver, not of its counters alone.
"""

import math
import threading

import pytest

import repro.core.faults as faults
from repro.core.faults import splice
from repro.core.interfaces import Incremental, ReplicationMode
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.registry import global_registry
from repro.util.errors import ClusterError, DisconnectedError
from tests.models import Box, Chain, Folder, chain_indices, make_chain


def _requests(site):
    """Request messages this consumer has sent to provider S2 so far."""
    return site.world.network.stats.link("S1", "S2").messages


def _first_proxy_holder(head):
    """The last local node of a partially replicated chain."""
    node = head
    while not isinstance(node.next, ProxyOutBase):
        node = node.next
    return node


class TestSplice:
    def _proxy_for(self, consumer, provider, target_name="t"):
        provider.export(Box("target"), name=target_name)
        holder = Folder("holder")
        return holder

    def test_splice_rewrites_all_demanders(self, zsites):
        provider, consumer = zsites
        shared = Box("shared-target")
        left, right = Folder("left"), Folder("right")
        left.add("s", shared)
        right.add("s", shared)
        root = Folder("root")
        root.add("left", left)
        root.add("right", right)
        provider.export(root, name="root")

        replica = consumer.replicate("root", mode=Incremental(3))  # root+left+right
        left1, right1 = replica.child("left"), replica.child("right")
        proxy = left1.child("s")
        assert isinstance(proxy, ProxyOutBase)
        assert right1.child("s") is proxy  # one proxy, two demanders

        value = proxy.get()
        assert value == "shared-target"
        assert left1.child("s") is right1.child("s")
        assert not isinstance(left1.child("s"), ProxyOutBase)

    def test_splice_returns_rewrite_count(self):
        from repro.core.interfaces import Interface
        from repro.core.proxy_out import make_proxy_out_class
        from repro.rmi.refs import RemoteRef

        iface = Interface("ISpliceTest", ("m",))
        proxy = make_proxy_out_class(iface)(
            None, "t", RemoteRef("s", "o"), iface, Incremental(1)
        )
        holder_a, holder_b = Folder(), Folder()
        holder_a.children = [proxy, proxy]
        holder_b.index = {"k": proxy}
        proxy._obi_add_demander(holder_a)
        proxy._obi_add_demander(holder_b)
        replacement = Box("real")
        assert splice(proxy, replacement) == 3
        assert holder_a.children == [replacement, replacement]
        assert holder_b.index["k"] is replacement
        assert proxy._obi_resolved is replacement
        assert proxy._obi_demanders == []


class TestResolution:
    def test_local_short_circuit_avoids_network(self, zsites):
        """If another path already replicated the target, a fault
        resolves without any traffic."""
        provider, consumer = zsites
        b = Box("b")
        holder1, holder2 = Folder("h1"), Folder("h2")
        holder1.add("b", b)
        holder2.add("b", b)
        provider.export(holder1, name="h1")
        provider.export(holder2, name="h2")

        r1 = consumer.replicate("h1", mode=Incremental(0, depth=1))  # brings b
        r2 = consumer.replicate("h2", mode=Incremental(1))  # b is a proxy...
        target = r2.child("b")
        # ...which the unswizzler already resolved to the local replica:
        assert not isinstance(target, ProxyOutBase)
        assert target is r1.child("b")

    def test_fault_while_disconnected_raises_disconnected(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(4), name="chain")
        head = consumer.replicate("chain", mode=Incremental(1))
        consumer.world.network.disconnect(consumer.name, voluntary=True)
        proxy = head.next
        with pytest.raises(DisconnectedError) as info:
            proxy.get_index()
        assert info.value.voluntary is True
        # Reconnect: the same proxy now resolves.
        consumer.world.network.reconnect(consumer.name)
        assert proxy.get_index() == 1

    def test_resolve_is_idempotent(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(3), name="chain")
        head = consumer.replicate("chain")
        proxy = head.next
        first = consumer.resolve_fault(proxy)
        second = consumer.resolve_fault(proxy)
        assert first is second
        assert consumer.gc_stats.faults_resolved == 1

    def test_aliased_stale_proxy_forwards_after_resolution(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(3), name="chain")
        head = consumer.replicate("chain")
        stale_alias = head.next  # keep the proxy beyond the splice
        head.next.get_index()  # resolve + splice
        assert stale_alias.get_index() == 1  # forwards, no second fault
        assert consumer.gc_stats.faults_resolved == 1

    def test_fault_resolved_event_published(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(2), name="chain")
        events = []
        consumer.events.subscribe("fault_resolved", lambda **kw: events.append(kw))
        head = consumer.replicate("chain")
        head.next.get_index()
        assert len(events) == 1
        assert events[0]["replica"].get_index() == 1


class TestChunkWalk:
    """The chunk is a fault's only read-ahead: one demand of ``k`` objects
    per round trip, each object with its own proxy pair."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_chain_walk_takes_ceil_n_over_k_round_trips(self, zsites, k):
        provider, consumer = zsites
        n = 41
        provider.export(make_chain(n), name="chain")
        head = consumer.replicate("chain", mode=Incremental(k))
        before = _requests(consumer)
        assert chain_indices(head) == list(range(n))
        # The replicate brought the first k; each demand brings k more.
        assert _requests(consumer) - before == math.ceil((n - k) / k)
        assert consumer.gc_stats.faults_resolved == math.ceil((n - k) / k)

    def test_every_member_of_a_chunk_is_put_back_on_its_own(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(10), name="chain")
        head = consumer.replicate("chain", mode=Incremental(4))
        holder = _first_proxy_holder(head)
        assert holder.get_index() == 3
        holder.next.get_index()  # one demand brings members 4..7
        members = []
        node = holder.next
        for _ in range(4):
            assert not isinstance(node, ProxyOutBase)
            members.append(node)
            node = node.next
        masters = [provider.master_object_for(obi_id_of(m)) for m in members]
        for i, member in enumerate(members):
            member.set_index(100 + i)
            consumer.put_back(member)
            assert [m.get_index() for m in masters] == [
                100 + j if j <= i else 4 + j for j in range(4)
            ]


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
    """A mode travels as the 3-tuple ``(chunk, depth, clustered)``, and a
    decoded one is held to the rules a constructed one is."""

    def test_legacy_three_tuple_decodes(self):
        entry = global_registry.lookup_class(ReplicationMode)
        mode = entry.factory()
        entry.set_state(mode, (3, 2, False))
        assert mode == ReplicationMode(chunk=3, depth=2)

    def test_demand_mode_is_37_bytes_and_the_package_carries_none(self, zsites):
        """A demand request's mode costs the same whatever its chunk, and
        the package answering it echoes no mode back."""
        provider, consumer = zsites
        sent, packages = [], []
        real = faults._invoke_demand

        def recording(site, proxy, scope):
            sent.append(scope)
            packages.append(real(site, proxy, scope))
            return packages[-1]

        for chunk in (1, 4, 64):
            ref = provider.export(make_chain(100), name=f"chain{chunk}")
            head = consumer.replicate(ref, mode=Incremental(chunk))
            holder = _first_proxy_holder(head)
            faults._invoke_demand = recording
            try:
                holder.next.get_index()
            finally:
                faults._invoke_demand = real
        assert [len(Encoder().encode(scope)) for scope in sent] == [37, 37, 37]
        assert not any(hasattr(package, "mode") for package in packages)
        # The scope alone tells the provider how far to walk.
        assert provider.endpoint.objects.get(ref.object_id).demand(sent[-1]).object_count == 64

    @pytest.mark.parametrize(
        "field, value",
        [("depth", -1), ("chunk", -2), ("chunk", "a"), ("depth", True), ("clustered", "yes")],
    )
    def test_a_provider_refuses_an_ill_formed_decoded_mode(self, zsites, field, value):
        provider, consumer = zsites
        ref = provider.export(make_chain(5), name="chain")
        mode = Incremental(1)
        object.__setattr__(mode, field, value)  # what a foreign encoder could send
        with pytest.raises(ClusterError):
            Decoder().decode(Encoder().encode(mode))
        with pytest.raises(ClusterError):
            consumer.endpoint.invoke(ref, "get", (mode,))
        with pytest.raises(ClusterError):
            ReplicationMode(**{field: value})

    def test_a_refused_decoded_mode_is_typed_over_tcp(self):
        with World.tcp() as world:
            provider, consumer = world.create_site("S2"), world.create_site("S1")
            ref = provider.export(make_chain(3), name="chain")
            mode = Incremental(1)
            object.__setattr__(mode, "depth", -1)
            with pytest.raises(ClusterError, match=">= 0"):
                consumer.endpoint.invoke(ref, "demand", (mode,))  # obilint: disable=OBI205 -- sends an ill-formed mode straight to the verb on purpose
            assert consumer.endpoint.invoke(ref, "demand", (Incremental(1),)).object_count == 1  # obilint: disable=OBI205 -- the well-formed twin of the raw demand above


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
