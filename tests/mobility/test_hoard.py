"""Tests for hoarding and prefetching."""

import threading
import time

import pytest

from repro.core import faults, graphwalk
from repro.core.costs import CostModel
from repro.core.interfaces import Incremental
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from repro.mobility.node import MobileNode
from repro.mobility.reconcile import ReconcileAction
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
    _w, office, node, _master = mobile
    office.export(_hub(3), name="hub")
    hub = node.hoard_store.hoard("hub", mode=Incremental(1))
    resolved = node.hoard_store.prefetch(hub, max_faults=1)
    assert resolved == 1
    assert not node.hoard_store.is_complete("hub")


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


def _hub(leaves: int) -> GraphNode:
    hub = GraphNode(0)
    for i in range(1, leaves + 1):
        hub.link(GraphNode(i))
    return hub


def _requests(node: MobileNode, provider) -> int:
    """Request messages the node has sent ``provider`` so far: one per
    round trip."""
    return node.site.world.network.stats.link(node.site.name, provider.name).messages


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
    before = _requests(node, office)
    calls = _count_direct_references(monkeypatch)
    resolved = node.hoard_store.prefetch(chain)
    # The office packages in this interpreter too; count the node's walks.
    local_walks = sum(1 for obj in calls if id(obj) not in masters)
    # One demand for the frontier proxy's closure: one round trip.
    assert resolved == 1
    assert _requests(node, office) - before == 1
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
    office.export(_hub(6), name="hub")
    root = node.hoard_store.hoard("hub", mode=Incremental(1))
    assert node.hoard_store.prefetch(root, max_faults=4) == 4
    assert not node.hoard_store.is_complete("hub")
    assert node.hoard_store.prefetch(root) == 2
    assert node.hoard_store.is_complete("hub")


def test_a_cross_linked_frontier_ships_each_missing_object_once(graphs, monkeypatch):
    """A hub whose six leaves link to one another in a ring: the first
    leaf's closure brings every leaf, so the other five frontier proxies
    are local hits and no leaf ships twice."""
    office, node = graphs
    hub = _hub(6)
    leaves = hub.get_refs()
    for leaf, following in zip(leaves, leaves[1:] + leaves[:1]):
        leaf.link(following)
    office.export(hub, name="hub")
    root = node.hoard_store.hoard("hub", mode=Incremental(1))
    shipped = []
    invoke_demand = faults._invoke_demand

    def counting(site, proxy, scope):
        package = invoke_demand(site, proxy, scope)
        shipped.append(package.object_count)
        return package

    monkeypatch.setattr(faults, "_invoke_demand", counting)
    before = _requests(node, office)
    assert node.hoard_store.prefetch(root) == 1
    assert shipped == [6]  # the six missing leaves, each once
    assert _requests(node, office) - before == 1
    assert node.hoard_store.is_complete("hub")
    node.go_offline()
    assert [leaf.get_value() for leaf in root.get_refs()] == list(range(1, 7))


def test_a_chained_hoard_takes_one_round_per_provider_site(graphs):
    """A closure demanded from a relay ends in proxy-outs it forwards to
    the origin; the next round fetches the rest from there."""
    office, node = graphs
    office.export(make_chain(10), name="chain")
    relay = office.world.create_site("relay")
    relay.export(relay.replicate("chain", mode=Incremental(5)), name="relayed")
    root = node.hoard_store.hoard("relayed", mode=Incremental(2))
    via_relay, via_office = _requests(node, relay), _requests(node, office)
    assert node.hoard_store.prefetch(root) == 2
    assert _requests(node, relay) - via_relay == 1
    assert _requests(node, office) - via_office == 1
    assert node.hoard_store.is_complete("relayed")
    node.go_offline()
    assert chain_indices(root) == list(range(10))


def test_a_fault_on_a_target_prefetch_claimed_coalesces(graphs, monkeypatch):
    office, node = graphs
    office.export(make_chain(6), name="chain")
    site = node.site
    root = node.hoard_store.hoard("chain", mode=Incremental(2))
    proxy = root.next.next
    assert isinstance(proxy, ProxyOutBase)
    release = threading.Event()
    invoke_demand = faults._invoke_demand

    def held(site_, prx, scope):
        release.wait(5.0)
        return invoke_demand(site_, prx, scope)

    monkeypatch.setattr(faults, "_invoke_demand", held)
    before = _requests(node, office)
    prefetch = threading.Thread(target=node.hoard_store.prefetch, args=(root,))
    prefetch.start()
    _wait_for(lambda: proxy._obi_target_id in site._inflight_demands)
    indices = []
    fault = threading.Thread(target=lambda: indices.append(proxy.get_index()))
    fault.start()
    _wait_for(lambda: site.fault_stats.coalesced_faults == 1)
    release.set()
    prefetch.join(5.0)
    fault.join(5.0)
    assert not prefetch.is_alive() and not fault.is_alive()
    assert indices == [2]
    assert site.fault_stats.coalesced_faults == 1
    assert _requests(node, office) - before == 1
    assert node.hoard_store.is_complete("chain")


def _wait_for(condition) -> None:
    for _ in range(500):
        if condition():
            return
        time.sleep(0.01)
    raise AssertionError("condition never held")


# ----------------------------------------------------------------------
# a demand never overwrites a replica the node already holds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [5, 6, 7])
def test_prefetch_keeps_a_local_edit_on_a_ring(graphs, size):
    """A closure demanded from the frontier wraps onto the hoarded root:
    the root keeps its offline edit, which reconnection then pushes."""
    office, node = graphs
    head = make_chain(size)
    tail = head
    while tail.next is not None:
        tail = tail.next
    tail.next = head
    office.export(head, name="ring")
    root = node.hoard("ring", Incremental(2))
    node.reconciler.track(root)
    root.set_index(99)
    node.prefetch(root)
    assert root.get_index() == 99
    assert node.reconciler.is_dirty(root)
    assert node.hoard_store.is_complete("ring")
    report = node.go_online()
    assert report.actions[obi_id_of(root)] is ReconcileAction.PUSHED
    assert office.master_object_for(obi_id_of(root)).get_index() == 99
