"""Coordinator write-backs are ``put`` round trips, counted like
``Site.put_back``'s."""

from repro.consistency.lww import LwwCoordinator, LwwReplica
from repro.consistency.vector import VectorCoordinator, VectorReplica


def test_lww_and_vector_write_backs_count_as_full_puts(trio):
    _world, master_site, consumer, _b, master = trio
    LwwCoordinator.export_on(master_site)
    VectorCoordinator.export_on(master_site)
    replica = consumer.replicate("counter")
    replica.increment(1)
    LwwReplica(consumer).write_back(replica)
    vector = VectorReplica(consumer)
    vector.track(replica)
    replica.increment(1)
    vector.write_back(replica)
    assert master.read() == 2
    assert consumer.sync_stats.puts_full == 2
    consumer.put_back(replica)
    assert consumer.sync_stats.puts_full == 3
