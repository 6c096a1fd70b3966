"""Protocol conformance: the exact frames each operation may send.

The trace recorder pins down the middleware's message complexity —
these tests fail if an implementation change silently adds round trips
to a core operation, the kind of regression aggregate timing can hide.
"""

import pytest

from repro.core.costs import CostModel
from repro.core.interfaces import Cluster, Incremental, Transitive
from repro.core.runtime import World
from repro.simnet.trace import TraceRecorder
from tests.models import Counter, chain_indices, make_chain


@pytest.fixture
def traced():
    with World.loopback(costs=CostModel.zero()) as world:
        provider = world.create_site("P")
        consumer = world.create_site("C")
        trace = TraceRecorder(world.network)
        yield world, provider, consumer, trace
        trace.detach()


def test_replicate_by_name_is_exactly_two_round_trips(traced):
    world, provider, consumer, trace = traced
    provider.export(Counter(), name="counter")
    trace.clear()
    consumer.replicate("counter")
    assert trace.sequence() == [
        ("request", "C", "P"),   # name-server lookup (NS lives on P)
        ("response", "P", "C"),
        ("request", "C", "P"),   # get
        ("response", "P", "C"),
    ]


def test_replicate_by_ref_is_one_round_trip(traced):
    world, provider, consumer, trace = traced
    ref = provider.export(Counter())
    trace.clear()
    consumer.replicate(ref)
    assert trace.round_trips() == 1
    assert len(trace) == 2


def test_each_fault_is_one_round_trip(traced):
    world, provider, consumer, trace = traced
    provider.export(make_chain(7), name="chain")
    head = consumer.replicate("chain", mode=Incremental(2))
    trace.clear()
    chain_indices(head)  # 5 remaining objects / chunk 2 → 3 faults
    assert trace.round_trips() == 3
    assert len(trace) == 6


def test_transitive_closure_is_one_get_regardless_of_size(traced):
    world, provider, consumer, trace = traced
    provider.export(make_chain(50), name="chain")
    ref = consumer.naming.lookup("chain")
    trace.clear()
    head = consumer.replicate(ref, mode=Transitive())
    assert trace.round_trips() == 1
    chain_indices(head)  # traversal adds nothing
    assert trace.round_trips() == 1


def test_cluster_fetch_same_trips_same_bytes_fewer_pairs(traced):
    world, provider, consumer, trace = traced
    provider.export(make_chain(30), name="chain")
    ref = consumer.naming.lookup("chain")

    trace.clear()
    consumer.replicate(ref, mode=Incremental(30))
    per_object_bytes = trace.bytes_total()
    per_object_trips = trace.round_trips()
    per_object_pairs = sum(1 for r in consumer.iter_replicas() if r.provider is not None)

    fresh = world.create_site("C2")
    trace.clear()
    fresh.replicate(ref, mode=Cluster(size=30))
    cluster_bytes = trace.bytes_total()
    cluster_pairs = sum(1 for r in fresh.iter_replicas() if r.provider is not None)
    assert trace.round_trips() == per_object_trips == 1
    assert cluster_bytes == per_object_bytes  # a package names no per-member provider
    assert (cluster_pairs, per_object_pairs) == (1, 30)


def test_put_and_refresh_are_one_round_trip_each(traced):
    world, provider, consumer, trace = traced
    provider.export(Counter(), name="counter")
    replica = consumer.replicate("counter")
    trace.clear()
    consumer.put_back(replica)
    assert trace.round_trips() == 1
    trace.clear()
    consumer.refresh(replica)
    assert trace.round_trips() == 1


def test_local_invocations_send_nothing(traced):
    world, provider, consumer, trace = traced
    provider.export(Counter(), name="counter")
    replica = consumer.replicate("counter")
    trace.clear()
    for _ in range(100):
        replica.increment()
    assert len(trace) == 0


def test_rmi_invocation_is_one_round_trip_per_call(traced):
    world, provider, consumer, trace = traced
    provider.export(Counter(), name="counter")
    stub = consumer.remote_stub("counter")
    trace.clear()
    stub.increment()
    stub.increment()
    assert trace.round_trips() == 2
