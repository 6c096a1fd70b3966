"""Tests for the replication engine: the heart of the reproduction.

The first class walks the paper's Figure 1 / Section 2.2 protocol step
by step; the rest cover modes, refresh, put, sharing and failure cases.
"""

import pytest

from repro import obiwan
from repro.core.interfaces import Cluster, Incremental, Transitive
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.util.errors import ReplicationError
from tests.models import Box, Chain, Counter, Folder, chain_indices, make_chain


class TestFigureOneProtocol:
    """The prototypical example: S2 holds A -> B -> C; S1 replicates."""

    @pytest.fixture
    def scenario(self, zsites):
        provider, consumer = zsites
        c = Chain(index=3)
        b = Chain(index=2, nxt=c)
        a = Chain(index=1, nxt=b)
        provider.export(a, name="a")
        return provider, consumer, a, b, c

    def test_situation_b_after_get(self, scenario):
        """After AProxyIn.get: A' is at S1 and points to BProxyOut."""
        provider, consumer, a, b, c = scenario
        a1 = consumer.replicate("a")
        assert a1 is not a  # true copy
        assert a1.get_index() == 1
        assert isinstance(a1.next, ProxyOutBase)
        assert a1.next._obi_target_id == obi_id_of(b)

    def test_object_fault_resolves_and_splices(self, scenario):
        """Invoking B via BProxyOut demands B', then updateMember makes
        further invocations direct."""
        provider, consumer, a, b, c = scenario
        a1 = consumer.replicate("a")
        proxy = a1.next
        assert proxy.get_index() == 2  # the fault
        assert not isinstance(a1.next, ProxyOutBase)  # spliced
        assert proxy._obi_resolved is a1.next

    def test_fault_cascade_down_the_graph(self, scenario):
        provider, consumer, a, b, c = scenario
        a1 = consumer.replicate("a")
        b1 = a1.next  # proxy
        assert b1.get_index() == 2
        b1 = a1.next
        assert isinstance(b1.next, ProxyOutBase)  # CProxyOut
        assert b1.next.get_index() == 3
        assert not isinstance(b1.next, ProxyOutBase)

    def test_replica_has_own_provider_for_put_and_get(self, scenario):
        """Step 3 of demand: B' points to BProxyIn so it can be put back
        or refreshed individually."""
        provider, consumer, a, b, c = scenario
        a1 = consumer.replicate("a")
        a1.next.get_index()
        b1 = a1.next
        info = consumer.replica_info(obi_id_of(b1))
        assert info is not None and info.provider is not None

        b1.set_index(22)
        consumer.put_back(b1)
        assert b.index == 22

        b.index = 222
        consumer.refresh(b1)
        assert b1.get_index() == 222

    def test_master_still_invocable_via_rmi_after_replication(self, scenario):
        """'At any time, both replicas, the master and the local, can be
        freely invoked.'"""
        provider, consumer, a, b, c = scenario
        a1 = consumer.replicate("a")
        stub = consumer.remote_stub("a")
        a1.set_index(10)  # local only
        assert stub.get_index() == 1  # master unchanged
        stub.set_index(5)  # RMI hits the master
        assert a.index == 5
        assert a1.get_index() == 10  # replica untouched

    def test_proxy_out_garbage_collected_after_splice(self, scenario):
        """Step 6: 'BProxyOut is no longer reachable and will be
        reclaimed by the garbage collector.'"""
        provider, consumer, a, b, c = scenario
        a1 = consumer.replicate("a")
        a1.next.get_index()
        assert consumer.gc_stats.faults_resolved == 1
        consumer.gc_stats.force_collect()
        assert consumer.gc_stats.resolved_collected == 1


class TestModes:
    def test_incremental_chunk_brings_n_objects(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(10), name="list")
        head = consumer.replicate("list", mode=Incremental(4))
        node, count = head, 0
        while node is not None and not isinstance(node, ProxyOutBase):
            count += 1
            node = node.next
        assert count == 4
        assert isinstance(node, ProxyOutBase)

    def test_transitive_closure_brings_everything(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(20), name="list")
        head = consumer.replicate("list", mode=Transitive())
        node, count = head, 0
        while node is not None:
            assert not isinstance(node, ProxyOutBase)
            count += 1
            node = node.next
        assert count == 20

    def test_depth_bounded_fetch(self, zsites):
        provider, consumer = zsites
        root = Folder("root")
        mid = Folder("mid")
        leaf = Box("leaf")
        mid.add("leaf", leaf)
        root.add("mid", mid)
        provider.export(root, name="tree")
        replica = consumer.replicate("tree", mode=Incremental(0, depth=1))
        assert not isinstance(replica.child("mid"), ProxyOutBase)
        assert isinstance(replica.child("mid").child("leaf"), ProxyOutBase)

    def test_full_traversal_under_any_chunk(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(30), name="list")
        for chunk, name in ((1, "c1"), (7, "c7")):
            site = consumer.world.create_site(f"consumer-{name}")
            head = site.replicate("list", mode=Incremental(chunk))
            assert chain_indices(head) == list(range(30))

    def test_mode_travels_with_faults(self, zsites):
        """A chunk-5 replica faults in chunks of 5."""
        provider, consumer = zsites
        provider.export(make_chain(15), name="list")
        head = consumer.replicate("list", mode=Incremental(5))
        head_5 = head
        for _ in range(4):
            head_5 = head_5.next if not isinstance(head_5.next, ProxyOutBase) else head_5.next
            if isinstance(head_5, ProxyOutBase):
                break
        # Trigger one fault and count the newly materialized span.
        chain_indices(head)  # walks everything
        assert consumer.gc_stats.faults_resolved == 2  # 15 objects / 5 per fetch


class TestCopySemantics:
    def test_replica_never_aliases_master_state(self, zsites):
        provider, consumer = zsites
        master = Folder("shared")
        master.children = [1, 2, 3]
        provider.export(master, name="folder")
        replica = consumer.replicate("folder")
        replica.children.append(4)
        assert master.children == [1, 2, 3]

    def test_shared_references_preserved_in_replica(self, zsites):
        provider, consumer = zsites
        shared = Box("shared")
        root = Folder("root")
        root.add("first", shared)
        root.add("second", shared)
        provider.export(root, name="root")
        replica = consumer.replicate("root", mode=Transitive())
        assert replica.child("first") is replica.child("second")

    def test_cyclic_graph_replicates(self, zsites):
        provider, consumer = zsites
        a, b = Chain(1), Chain(2)
        a.next, b.next = b, a
        provider.export(a, name="cycle")
        a1 = consumer.replicate("cycle", mode=Transitive())
        assert a1.next.next is a1

    def test_second_replicate_returns_same_local_object(self, zsites):
        provider, consumer = zsites
        provider.export(Box("v"), name="box")
        first = consumer.replicate("box")
        second = consumer.replicate("box")
        assert first is second

    def test_refresh_updates_in_place_for_all_aliases(self, zsites):
        provider, consumer = zsites
        master = Counter(0)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        alias = replica
        master.increment(41)
        provider.touch(master)
        consumer.refresh(replica)
        assert alias.read() == 41


class TestPut:
    def test_put_updates_master_state(self, zsites):
        provider, consumer = zsites
        master = Counter(0)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        replica.increment(5)
        version = consumer.put_back(replica)
        assert master.value == 5
        assert version == 2

    def test_versions_increment_per_put(self, zsites):
        provider, consumer = zsites
        master = Counter()
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        assert consumer.put_back(replica) == 2
        assert consumer.put_back(replica) == 3

    def test_put_preserves_master_identity(self, zsites):
        provider, consumer = zsites
        master = Counter()
        provider.export(master, name="counter")
        oid = obi_id_of(master)
        replica = consumer.replicate("counter")
        replica.increment()
        consumer.put_back(replica)
        assert obi_id_of(master) == oid

    def test_put_relinks_references_to_master_side_objects(self, zsites):
        provider, consumer = zsites
        b = Box("b-payload")
        a = Folder("a")
        a.add("b", b)
        provider.export(a, name="a")
        a1 = consumer.replicate("a", mode=Transitive())
        a1.name = "a-edited"
        consumer.put_back(a1)
        # The master's reference still points at the master-side b, not a
        # copy of the replica's b.
        assert a.child("b") is b
        assert a.name == "a-edited"

    def test_put_with_unresolved_proxy_field(self, zsites):
        """Putting a replica whose field is still a proxy-out keeps the
        master's original reference."""
        provider, consumer = zsites
        b = Box("deep")
        a = Folder("a")
        a.add("b", b)
        provider.export(a, name="a")
        a1 = consumer.replicate("a")  # chunk 1: b stays a proxy
        assert isinstance(a1.child("b"), ProxyOutBase)
        a1.name = "edited"
        consumer.put_back(a1)
        assert a.child("b") is b
        assert a.name == "edited"

    def test_put_of_consumer_created_object_keeps_consumer_as_master(self, zsites):
        provider, consumer = zsites
        folder = Folder("shared")
        provider.export(folder, name="folder")
        replica = consumer.replicate("folder")
        fresh = Box("made-at-consumer")
        replica.add("fresh", fresh)
        consumer.put_back(replica)
        arrived = folder.child("fresh")
        assert isinstance(arrived, ProxyOutBase)
        assert arrived._obi_provider.site_id == consumer.name
        # The provider can fault it in on demand.
        assert arrived.get() == "made-at-consumer"

    def test_put_non_replica_fails(self, zsites):
        provider, consumer = zsites
        with pytest.raises(ReplicationError):
            consumer.put_back(Box("never-replicated"))

    def test_refresh_non_replica_fails(self, zsites):
        _provider, consumer = zsites
        with pytest.raises(ReplicationError):
            consumer.refresh(Box())


class TestChainedReplication:
    def test_replica_can_act_as_provider(self, zero_world):
        """'Objects can be replicated freely among sites': S3 replicates
        A from S1's replica, and faults chase back to the origin."""
        s2 = zero_world.create_site("S2")
        s1 = zero_world.create_site("S1")
        s3 = zero_world.create_site("S3")
        chain = make_chain(3)
        s2.export(chain, name="chain")
        mid = s1.replicate("chain")  # chunk 1: mid.next is a proxy to S2
        ref = s1.export(mid, name="chain-via-s1")
        far = s3.replicate("chain-via-s1")
        assert far.get_index() == 0
        # The frontier proxy at S3 points through S1's proxy to S2's obj.
        assert chain_indices(far) == [0, 1, 2]


class TestPackaging:
    def test_pairs_created_reported(self, zsites):
        provider, consumer = zsites
        from repro.core.replication import build_package

        head = make_chain(6)
        provider.export(head, name="x")
        package = build_package(provider, head, Incremental(3))
        # 3 member pairs (head reuses its export) — head's proxy-in exists
        # already, so 2 new member pairs + 1 frontier pair.
        assert package.pairs_created == 3
        assert package.object_count == 3

    def test_cluster_package_has_single_new_pair(self, zsites):
        provider, consumer = zsites
        from repro.core.replication import build_package

        head = make_chain(6)
        provider.export(head, name="x")
        package = build_package(provider, head, Cluster(size=3))
        assert package.pairs_created == 1  # the frontier only
        exported = [oid for oid in package.meta if provider.has_exported(oid)]
        assert exported == [obi_id_of(head)]  # only the root is updatable

    def test_package_meta_maps_each_member_oid_to_its_version(self, zsites):
        provider, _consumer = zsites
        from repro.core.replication import build_package

        head = make_chain(3)
        provider.export(head, name="x")
        provider.touch(head)
        package = build_package(provider, head, Cluster(size=3))
        nodes = [head, head.next, head.next.next]
        assert package.meta == {obi_id_of(n): v for n, v in zip(nodes, (2, 1, 1))}
        assert list(package.meta) == [obi_id_of(n) for n in nodes]  # root first

    def test_proxy_out_descriptor_names_the_provider_site(self, zero_world):
        from repro.core.replication import PROXY_OUT_KIND, PackagingSwizzler

        s2 = zero_world.create_site("S2")
        s1 = zero_world.create_site("S1")
        head = make_chain(3)
        s2.export(head, name="chain")
        # The export branch: a reference leaving the set names this site.
        exported = PackagingSwizzler(s2, member_ids=set()).swizzle(head.next)
        assert exported.kind == PROXY_OUT_KIND
        assert exported.data == (obi_id_of(head.next), "IChain", "S2")
        # The forwarding branch: a still-unresolved proxy-out at S1 names
        # its own provider's site, not S1.
        mid = s1.replicate("chain")
        assert isinstance(mid.next, ProxyOutBase)
        forwarded = PackagingSwizzler(s1, member_ids=set()).swizzle(mid.next)
        assert forwarded.data == (obi_id_of(head.next), "IChain", "S2")
