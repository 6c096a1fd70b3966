"""Tests for hoarding and prefetching."""

import pytest

from repro.core import graphwalk
from repro.core.costs import CostModel
from repro.core.interfaces import Incremental
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from repro.mobility.node import MobileNode
from tests.models import GraphNode, chain_indices, make_chain


def test_hoard_defaults_to_transitive_closure(mobile):
    _w, _office, node, _master = mobile
    chain = node.hoard_store.hoard("chain")
    assert node.hoard_store.is_complete("chain")
    node.go_offline()
    assert chain_indices(chain) == list(range(5))  # no faults offline


def test_partial_hoard_is_reported_incomplete(mobile):
    _w, _office, node, _master = mobile
    node.hoard_store.hoard("chain", mode=Incremental(2))
    assert not node.hoard_store.is_complete("chain")


def test_prefetch_completes_a_partial_graph(mobile):
    _w, _office, node, _master = mobile
    chain = node.hoard_store.hoard("chain", mode=Incremental(2))
    resolved = node.hoard_store.prefetch(chain)
    assert resolved >= 1
    assert node.hoard_store.is_complete("chain")
    node.go_offline()
    assert chain_indices(chain) == list(range(5))


def test_prefetch_bounded_by_max_faults(mobile):
    _w, _office, node, _master = mobile
    chain = node.hoard_store.hoard("chain", mode=Incremental(1))
    resolved = node.hoard_store.prefetch(chain, max_faults=1)
    assert resolved == 1
    assert not node.hoard_store.is_complete("chain")


def test_prefetch_on_complete_graph_is_zero(mobile):
    _w, _office, node, _master = mobile
    chain = node.hoard_store.hoard("chain")
    assert node.hoard_store.prefetch(chain) == 0


def test_hoard_contents_management(mobile):
    _w, _office, node, _master = mobile
    replica = node.hoard_store.hoard("counter")
    assert "counter" in node.hoard_store
    assert node.hoard_store.get("counter") is replica
    assert node.hoard_store.names() == ["counter"]
    node.hoard_store.unpin("counter")
    assert len(node.hoard_store) == 0
    assert node.hoard_store.get("counter") is None
    assert not node.hoard_store.is_complete("counter")


def test_hoarded_graph_with_resolved_proxies_counts_complete(mobile):
    _w, _office, node, _master = mobile
    chain = node.hoard_store.hoard("chain", mode=Incremental(2))
    # Resolve the frontier by traversal rather than prefetch.
    assert chain_indices(chain) == list(range(5))
    assert node.hoard_store.is_complete("chain")


# ----------------------------------------------------------------------
# prefetch walks every object once, whatever the number of faults
# ----------------------------------------------------------------------
@pytest.fixture
def graphs():
    """(office, node): an office to export graphs on, a node to hoard them."""
    with World.loopback(costs=CostModel.zero()) as world:
        office = world.create_site("office")
        yield office, MobileNode(world.create_site("pda"))


def _count_direct_references(monkeypatch):
    calls = []
    walk = graphwalk.direct_references

    def counting(obj):
        calls.append(obj)
        return walk(obj)

    monkeypatch.setattr(graphwalk, "direct_references", counting)
    return calls


def test_prefetch_of_a_chunked_list_is_linear(graphs, monkeypatch):
    office, node = graphs
    n, chunk = 240, 8
    head = make_chain(n)
    office.export(head, name="long")
    masters = set()
    while head is not None:
        masters.add(id(head))
        head = head.get_next()
    chain = node.hoard_store.hoard("long", mode=Incremental(chunk))
    calls = _count_direct_references(monkeypatch)
    resolved = node.hoard_store.prefetch(chain)
    # The office packages in this interpreter too; count the node's walks.
    local_walks = sum(1 for obj in calls if id(obj) not in masters)
    assert resolved == n // chunk - 1
    assert node.hoard_store.is_complete("long")
    # Integration walks each arrival twice and prefetch once; re-walking
    # the replica after every fault cost n²/(2·chunk) = 15n here.
    assert local_walks <= 4 * n


def test_prefetch_terminates_on_cycles_and_diamonds(graphs):
    office, node = graphs
    top, left, right, bottom = (GraphNode(i) for i in range(4))
    top.link(left)
    top.link(right)
    left.link(bottom)
    right.link(bottom)
    bottom.link(top)  # the diamond closes into a cycle
    office.export(top, name="diamond")
    root = node.hoard_store.hoard("diamond", mode=Incremental(1))
    assert 1 <= node.hoard_store.prefetch(root) <= 3
    assert node.hoard_store.is_complete("diamond")
    node.go_offline()
    left_replica, right_replica = root.get_refs()
    assert left_replica.get_refs()[0] is right_replica.get_refs()[0]
    assert left_replica.get_refs()[0].get_refs()[0] is root


def test_max_faults_bounds_a_long_frontier(graphs):
    office, node = graphs
    hub = GraphNode(0)
    for i in range(1, 7):
        hub.link(GraphNode(i))
    office.export(hub, name="hub")
    root = node.hoard_store.hoard("hub", mode=Incremental(1))
    assert node.hoard_store.prefetch(root, max_faults=4) == 4
    assert not node.hoard_store.is_complete("hub")
    assert node.hoard_store.prefetch(root) == 2
    assert node.hoard_store.is_complete("hub")
