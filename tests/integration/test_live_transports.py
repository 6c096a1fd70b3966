"""Integration: the full OBIWAN stack on the TCP transport.

The loopback transport is synchronous; these tests prove the middleware
also works when requests genuinely cross threads and sockets.
"""

import threading

import pytest

from repro.core.interfaces import Cluster, Incremental
from repro.core.meta import obi_id_of
from repro.core.runtime import World
from repro.mobility.node import MobileNode
from tests.models import Counter, chain_indices, make_chain


@pytest.fixture(params=["tcp"])
def live_world(request):
    with World.tcp() as world:
        yield world


def test_replicate_fault_put_refresh(live_world):
    provider = live_world.create_site("provider")
    consumer = live_world.create_site("consumer")
    provider.export(make_chain(10), name="chain")

    head = consumer.replicate("chain", mode=Incremental(3))
    assert chain_indices(head) == list(range(10))

    head.set_index(100)
    consumer.put_back(head)

    master_head = provider.master_object_for(obi_id_of(head))
    assert master_head.index == 100


def test_cluster_over_live_transport(live_world):
    provider = live_world.create_site("provider")
    consumer = live_world.create_site("consumer")
    provider.export(make_chain(12), name="chain")
    head = consumer.replicate("chain", mode=Cluster(size=5))
    assert chain_indices(head) == list(range(12))


def test_concurrent_consumers_tcp():
    with World.tcp() as world:
        provider = world.create_site("provider")
        master = Counter(0)
        provider.export(master, name="counter")

        errors: list[Exception] = []
        done = threading.Barrier(4, timeout=10)

        def consume(name: str):
            try:
                site = world.create_site(name)
                replica = site.replicate("counter")
                assert replica.read() >= 0
                for _ in range(5):
                    site.refresh(replica)
                done.wait()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                try:
                    done.abort()
                except Exception:  # noqa: BLE001
                    pass

        threads = [
            threading.Thread(target=consume, args=(f"consumer-{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        assert not errors


def test_mobility_over_tcp():
    """Disconnection is a logical state, honoured even on real sockets."""
    with World.tcp() as world:
        office = world.create_site("office")
        pda_site = world.create_site("pda")
        office.export(Counter(1), name="counter")
        node = MobileNode(pda_site)
        replica = node.hoard("counter")
        node.go_offline(voluntary=True)
        result = node.call("counter", "read")
        assert result.value == 1
        assert result.possibly_stale
        report = node.go_online()
        assert report is not None
