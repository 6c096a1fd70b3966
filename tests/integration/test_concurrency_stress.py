"""Concurrency stress: many client threads against one provider.

On TCP every inbound connection is served on its own thread and client
threads drive their own sites concurrently, so the provider's tables
see real cross-thread pressure.  These tests run
enough concurrent operations to surface table races if the locking is
wrong.
"""

import threading

import pytest

from repro.core.interfaces import Incremental
from repro.core.meta import obi_id_of
from repro.core.runtime import World
from tests.models import Counter, chain_indices, make_chain


@pytest.mark.parametrize("consumers", [4, 8])
def test_concurrent_first_replication_one_master(consumers):
    """Simultaneous first-touch of the same object must create exactly
    one proxy-in at the provider."""
    with World.tcp() as world:
        provider = world.create_site("provider")
        master = Counter(7)
        ref = provider.export(master)

        ready = threading.Barrier(consumers, timeout=10)
        errors: list[Exception] = []
        replicas: dict[str, object] = {}

        def consume(name: str):
            try:
                site = world.create_site(name)
                ready.wait()
                replicas[name] = site.replicate(ref)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=consume, args=(f"c{i}",)) for i in range(consumers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
        assert not errors
        assert len(replicas) == consumers
        assert all(r.read() == 7 for r in replicas.values())
        # Exactly one provider record for the master.
        assert provider.has_exported(obi_id_of(master))


def test_concurrent_chunked_traversals():
    """Several consumers fault through the same list at once; every one
    must see the full, correct sequence."""
    with World.tcp() as world:
        provider = world.create_site("provider")
        provider.export(make_chain(40), name="chain")

        results: dict[str, list[int]] = {}
        errors: list[Exception] = []

        def traverse(name: str, chunk: int):
            try:
                site = world.create_site(name)
                head = site.replicate("chain", mode=Incremental(chunk))
                results[name] = chain_indices(head)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=traverse, args=(f"t{i}", 1 + i * 3))
            for i in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert all(seq == list(range(40)) for seq in results.values())


def test_concurrent_puts_serialize_at_the_master():
    """Interleaved put_back calls from many threads must not lose
    version bumps (each accepted put increments by exactly one)."""
    with World.tcp() as world:
        provider = world.create_site("provider")
        master = Counter(0)
        provider.export(master, name="counter")

        per_thread = 10
        thread_count = 6
        versions: list[int] = []
        lock = threading.Lock()
        errors: list[Exception] = []

        def writer(name: str):
            try:
                site = world.create_site(name)
                replica = site.replicate("counter")
                for _ in range(per_thread):
                    replica.increment()
                    version = site.put_back(replica)
                    with lock:
                        versions.append(version)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(f"w{i}",)) for i in range(thread_count)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        total = per_thread * thread_count
        # Every put got a distinct, gap-free version number.
        assert sorted(versions) == list(range(2, total + 2))
        assert provider.master_version(master) == total + 1
