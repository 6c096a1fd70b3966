"""Consistency protocols over live transports and in combination.

The consistency layer's casts (invalidations, epidemic pushes) take a
different transport path than request/response; these tests prove the
full stack works over real sockets and threads, and that protocols
compose on one object.
"""

import time

import pytest

from repro.consistency import (
    InvalidationConsumer,
    InvalidationMaster,
    LeaseConsistency,
    ReadPolicy,
    UpdateDisseminator,
    UpdateSubscriber,
)
from repro.core.runtime import World
from repro.util.clock import WallClock
from tests.models import Counter


def _await(predicate, timeout=5.0):
    """Poll until a cross-thread effect lands (live transports only)."""
    clock = WallClock()
    deadline = clock.now() + timeout
    while clock.now() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


@pytest.mark.parametrize("factory", [World.tcp], ids=["tcp"])
def test_invalidation_over_live_transport(factory):
    with factory() as world:
        master_site = world.create_site("M")
        writer = world.create_site("W")
        reader = world.create_site("R")
        master = Counter(0)
        master_site.export(master, name="counter")
        InvalidationMaster.export_on(master_site)

        w_consumer = InvalidationConsumer(writer)
        r_consumer = InvalidationConsumer(reader, policy=ReadPolicy.REFRESH)
        wr = w_consumer.track(writer.replicate("counter"))
        rr = r_consumer.track(reader.replicate("counter"))

        wr.increment(3)
        w_consumer.write_back(wr)

        assert _await(lambda: r_consumer.is_stale(rr)), "invalidation cast lost"
        assert r_consumer.read(rr).read() == 3


@pytest.mark.parametrize("factory", [World.tcp], ids=["tcp"])
def test_epidemic_over_live_transport(factory):
    with factory() as world:
        master_site = world.create_site("M")
        writer = world.create_site("W")
        reader = world.create_site("R")
        master = Counter(0)
        master_site.export(master, name="counter")
        UpdateDisseminator.export_on(master_site)

        subscriber = UpdateSubscriber(reader)
        rr = subscriber.track(reader.replicate("counter"))
        wr = writer.replicate("counter")
        wr.increment(9)
        writer.put_back(wr)

        assert _await(lambda: rr.read() == 9), "epidemic push lost"
        assert subscriber.updates_received >= 1


def test_lease_and_invalidation_compose(zero_world):
    """A reader can hold both a lease (cheap bound) and an invalidation
    subscription (precise bound) on one replica; whichever fires first
    triggers the refresh."""
    master_site = zero_world.create_site("M")
    writer = zero_world.create_site("W")
    reader = zero_world.create_site("R")
    master = Counter(0)
    master_site.export(master, name="counter")
    InvalidationMaster.export_on(master_site)

    w_consumer = InvalidationConsumer(writer)
    invalidation = InvalidationConsumer(reader, policy=ReadPolicy.REFRESH)
    lease = LeaseConsistency(reader, duration=10.0, policy=ReadPolicy.REFRESH)

    wr = w_consumer.track(writer.replicate("counter"))
    rr = reader.replicate("counter")
    invalidation.track(rr)
    lease.track(rr)

    # Within the lease, before any write: both protocols serve locally.
    before = zero_world.network.stats.total_messages
    assert lease.read(invalidation.read(rr)).read() == 0
    assert zero_world.network.stats.total_messages == before

    # A remote write: invalidation fires first (lease still valid).
    wr.increment(4)
    w_consumer.write_back(wr)
    fresh = invalidation.read(rr)
    assert fresh.read() == 4
    assert lease.read(fresh).read() == 4  # lease unaffected

    # Later, with no writes, the lease expiry alone triggers a refresh.
    zero_world.clock.advance(11.0)
    refreshed = lease.read(rr)
    assert refreshed.read() == 4
    assert lease.remaining(rr) > 0
