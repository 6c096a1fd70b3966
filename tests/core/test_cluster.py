"""Tests for dynamic cluster replication (paper Sections 2.2 / 4.3)."""

import pytest

from repro.core.cluster import check_individually_updatable, cluster_members
from repro.core.interfaces import Cluster, Incremental
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.util.errors import ClusterError
from tests.models import Chain, chain_indices, make_chain


@pytest.fixture
def clustered(zsites):
    provider, consumer = zsites
    masters = make_chain(10)
    provider.export(masters, name="list")
    root = consumer.replicate("list", mode=Cluster(size=4))
    return provider, consumer, masters, root


class TestClusterFetch:
    def test_cluster_brings_members_without_pairs(self, clustered):
        _provider, consumer, _masters, root = clustered
        members = cluster_members(consumer, root)
        assert len(members) == 4
        # Only the root is individually updatable.
        root_info = consumer.replica_info(obi_id_of(root))
        assert root_info.provider is not None
        for member in members[1:]:
            info = consumer.replica_info(obi_id_of(member))
            assert info.provider is None
            assert info.cluster_root == obi_id_of(root)

    def test_frontier_is_one_proxy(self, clustered):
        _provider, consumer, _masters, root = clustered
        node = root
        for _ in range(3):
            node = node.next
            assert not isinstance(node, ProxyOutBase)
        assert isinstance(node.next, ProxyOutBase)

    def test_faulting_past_frontier_fetches_next_cluster(self, clustered):
        _provider, consumer, _masters, root = clustered
        assert chain_indices(root) == list(range(10))
        # 10 objects in clusters of 4 → initial fetch + 2 faults.
        assert consumer.gc_stats.faults_resolved == 2

    def test_whole_graph_cluster(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(12), name="all")
        root = consumer.replicate("all", mode=Cluster())
        node, count = root, 0
        while node is not None:
            assert not isinstance(node, ProxyOutBase)
            count += 1
            node = node.next
        assert count == 12


class TestClusterUpdateGranularity:
    def test_member_put_rejected(self, clustered):
        _provider, consumer, _masters, root = clustered
        member = root.next
        with pytest.raises(ClusterError, match="cluster"):
            consumer.put_back(member)

    def test_member_refresh_rejected(self, clustered):
        _provider, consumer, _masters, root = clustered
        with pytest.raises(ClusterError):
            consumer.refresh(root.next)

    def test_cluster_put_updates_all_members(self, clustered):
        provider, consumer, masters, root = clustered
        node = root
        for offset in range(4):
            node.set_index(node.get_index() + 100)
            node = node.next if not isinstance(node.next, ProxyOutBase) else None
            if node is None:
                break
        versions = consumer.put_back_cluster(root)
        assert len(versions) == 4
        master_node = masters
        for expected in (100, 101, 102, 103):
            assert master_node.index == expected
            master_node = master_node.next

    def test_cluster_put_from_member_rejected(self, clustered):
        _provider, consumer, _masters, root = clustered
        with pytest.raises(ClusterError, match="root"):
            consumer.put_back_cluster(root.next)

    def test_cluster_put_scans_the_replica_table_once(self, clustered, monkeypatch):
        _provider, consumer, masters, root = clustered
        scans = []
        iter_replicas = consumer.iter_replicas

        def counted():
            scans.append(1)
            return iter_replicas()

        monkeypatch.setattr(consumer, "iter_replicas", counted)
        root.set_index(42)
        assert len(consumer.put_back_cluster(root)) == 4
        assert masters.index == 42
        assert len(scans) == 1

    def test_check_individually_updatable_passes_for_plain_replica(self, zsites):
        provider, consumer = zsites
        provider.export(Chain(index=5), name="solo")
        replica = consumer.replicate("solo", mode=Incremental(1))
        check_individually_updatable(consumer, replica)  # no raise

    def test_cluster_members_requires_replica(self, zsites):
        _provider, consumer = zsites
        with pytest.raises(ClusterError):
            cluster_members(consumer, Chain())


class TestClusterRefresh:
    def test_refresh_cluster_updates_all_members_in_place(self, clustered):
        provider, consumer, masters, root = clustered
        # Mutate the masters behind the replicas' back.
        node = masters
        for _ in range(4):
            node.index += 1000
            node = node.next
        refreshed = consumer.refresh_cluster(root)
        assert refreshed is root  # in-place
        node, expected = root, 1000
        for _ in range(4):
            assert node.get_index() == expected
            expected += 1
            if isinstance(node.next, ProxyOutBase):
                break
            node = node.next

    def test_refresh_cluster_keeps_member_aliases(self, clustered):
        _provider, consumer, masters, root = clustered
        member_alias = root.next
        masters.next.index = 777
        consumer.refresh_cluster(root)
        assert member_alias.get_index() == 777

    def test_refresh_cluster_from_member_rejected(self, clustered):
        _provider, consumer, _masters, root = clustered
        with pytest.raises(ClusterError):
            consumer.refresh_cluster(root.next)


class TestClusterEconomics:
    def test_cluster_moves_fewer_bytes_than_per_object(self, zero_world):
        provider = zero_world.create_site("P")
        a = zero_world.create_site("A")
        b = zero_world.create_site("B")
        provider.export(make_chain(50), name="chain")

        stats = zero_world.network.stats
        a_before = stats.bytes_between("P", "A")
        head_a = a.replicate("chain", mode=Incremental(50))
        per_object_bytes = stats.bytes_between("P", "A") - a_before

        b_before = stats.bytes_between("P", "B")
        head_b = b.replicate("chain", mode=Cluster(size=50))
        cluster_bytes = stats.bytes_between("P", "B") - b_before

        assert cluster_bytes < per_object_bytes
        assert chain_indices(head_b) == chain_indices(head_a)
