"""The one write-back path: ``put_back_many`` and the master's
validate-then-apply ``put``.

``Site.put_back`` is the one-element case, so a single put must send
exactly the frame it always did; a multi-entry put must be authorised and
validated before anything is applied, and journaled as one batch.
"""

# obilint: disable-file=OBI204 -- TestValidateThenApply sends hand-built put packages straight to a proxy-in; the replicas come from replicate() above

import pytest

from repro.core.interfaces import Cluster
from repro.core.meta import obi_id_of
from repro.core.packages import PutEntry, PutPackage
from repro.core.replication import apply_put, build_put
from repro.rmi.protocol import InvokeRequest
from repro.serial import tags
from repro.serial.encoder import Encoder
from repro.util.errors import ClusterError, ReplicationError, UnknownReplicaError
from tests.models import Box, Counter, make_chain


def _export_counters(provider, count, prefix="c"):
    masters = [Counter(i) for i in range(count)]
    for i, master in enumerate(masters):
        provider.export(master, name=f"{prefix}{i}")
    return masters


@pytest.fixture
def requests_on_the_wire(zero_world, monkeypatch):
    """Every request payload the network carries, in order."""
    sent = []
    call = zero_world.network.call

    def tapped(src, dst, payload, **kwargs):
        sent.append(payload)
        return call(src, dst, payload, **kwargs)

    monkeypatch.setattr(zero_world.network, "call", tapped)
    return sent


class TestSinglePutSendsTheSameFrame:
    """``put_back(replica)`` = one ``invoke(provider, verb, (package,))`` whose
    package the long-standing builders produce for ``[replica]`` — what the
    per-object write-back has always put on the wire."""

    @staticmethod
    def _frame(consumer, replica, verb, package):
        provider = consumer.replica_info(obi_id_of(replica)).provider
        request = InvokeRequest(
            object_id=provider.object_id, method=verb, args=(package,), kwargs={}
        )
        return Encoder(consumer.registry).encode(request)

    def test_reflective(self, zsites, requests_on_the_wire):
        provider, consumer = zsites
        provider.export(Box({"k": [1, 2]}), name="box")
        replica = consumer.replicate("box")
        replica.set({"k": [3]})
        expected = self._frame(consumer, replica, "put", build_put(consumer, [replica], "S2"))
        requests_on_the_wire.clear()
        consumer.put_back(replica)
        assert requests_on_the_wire == [expected]

    def test_compiled(self, zsites, requests_on_the_wire):
        provider, consumer = zsites
        provider.export(Counter(1), name="counter")
        replica = consumer.replicate("counter")
        replica.increment()
        package = build_put(consumer, [replica], "S2")
        # One frame: a one-item list holding the entry's instance frame.
        assert package.payload[:5] == bytes([tags.LIST, 0, 0, 0, 1])
        assert package.payload[5] == tags.OBJECT_SCHEMA
        expected = self._frame(consumer, replica, "put", package)
        requests_on_the_wire.clear()
        consumer.put_back(replica)
        assert requests_on_the_wire == [expected]


class TestPutBackMany:
    def test_one_put_per_provider_site(self, zero_world):
        zero_world.create_site("NS")
        east, west = zero_world.create_site("east"), zero_world.create_site("west")
        consumer = zero_world.create_site("S1")
        masters = _export_counters(east, 3, "e") + _export_counters(west, 2, "w")
        replicas = [consumer.replicate(f"e{i}") for i in range(3)]
        replicas += [consumer.replicate(f"w{i}") for i in range(2)]
        for replica in replicas:
            replica.increment(10)
        before = zero_world.network.stats.total_messages
        versions = consumer.put_back_many(replicas)
        assert zero_world.network.stats.total_messages - before == 4
        assert [m.value for m in masters] == [10, 11, 12, 10, 11]
        assert versions == {obi_id_of(r): 2 for r in replicas}
        assert all(consumer.replica_info(oid).version == 2 for oid in versions)
        assert consumer.sync_stats.puts_full == 2

    def test_nothing_to_push_is_free(self, zsites, zero_world):
        _provider, consumer = zsites
        before = zero_world.network.stats.total_messages
        assert consumer.put_back_many([]) == {}
        assert zero_world.network.stats.total_messages == before

    def test_cluster_members_are_refused_before_any_traffic(self, zsites, zero_world):
        provider, consumer = zsites
        provider.export(make_chain(3), name="chain")
        provider.export(Counter(0), name="counter")
        root = consumer.replicate("chain", mode=Cluster(size=3))
        counter = consumer.replicate("counter")
        counter.increment()
        before = zero_world.network.stats.total_messages
        with pytest.raises(ClusterError):
            consumer.put_back_many([counter, root.get_next()])
        assert zero_world.network.stats.total_messages == before

    def test_cluster_put_ships_every_member(self, zsites):
        provider, consumer = zsites
        masters = make_chain(4)
        provider.export(masters, name="list")
        root = consumer.replicate("list", mode=Cluster(size=4))
        root.set_index(41)
        versions = consumer.put_back_cluster(root)
        assert len(versions) == 4
        assert masters.index == 41
        assert consumer.sync_stats.puts_full == 1


class TestSyncCounters:
    def test_snapshot_carries_sync_counters(self, zsites):
        provider, consumer = zsites
        provider.export(Box(1), name="box")
        replica = consumer.replicate("box")
        replica.set(2)
        consumer.put_back(replica)
        consumer.put_back(replica)  # unchanged: still a put
        consumer.refresh(replica)
        assert consumer.sync_stats.snapshot() == {"puts_full": 2, "refreshes_full": 1}
        assert consumer.sync_stats.reset() == {"puts_full": 2, "refreshes_full": 1}
        assert consumer.sync_stats.snapshot() == {"puts_full": 0, "refreshes_full": 0}


class TestUnknownReplica:
    def test_is_a_replication_error(self):
        assert issubclass(UnknownReplicaError, ReplicationError)
        assert not issubclass(UnknownReplicaError, KeyError)

    def test_apply_put_raises_typed_error_for_unknown_id(self, zsites):
        provider, _consumer = zsites
        package = PutPackage(entries=[PutEntry(obi_id="ghost")])
        with pytest.raises(UnknownReplicaError, match="ghost"):
            apply_put(provider, package)

    def test_unknown_replica_error_crosses_the_wire(self, zsites):
        provider, consumer = zsites
        provider.export(Box(1), name="box")
        replica = consumer.replicate("box")
        ref = consumer.replica_info(obi_id_of(replica)).provider
        package = PutPackage(entries=[PutEntry(obi_id="ghost")])
        with pytest.raises(UnknownReplicaError, match="ghost"):
            consumer.endpoint.invoke(ref, "put", (package,))


class TestValidateThenApply:
    def test_unknown_oid_applies_and_journals_nothing(self, zsites):
        provider, consumer = zsites
        masters = _export_counters(provider, 3)
        replicas = [consumer.replicate(f"c{i}") for i in range(3)]
        for replica in replicas:
            replica.increment(10)
        provider.drop_master(obi_id_of(masters[2]))  # the *last* entry is unknown
        events = []
        provider.change_log.subscribe(events.append)
        head = provider.change_log.latest_serial
        package = build_put(consumer, replicas)
        via_first = consumer.replica_info(obi_id_of(replicas[0])).provider
        with pytest.raises(UnknownReplicaError):
            consumer.endpoint.invoke(via_first, "put", (package,))
        assert [m.value for m in masters] == [0, 1, 2]
        assert [provider.version_of(m) for m in masters[:2]] == [1, 1]
        assert provider.change_log.latest_serial == head
        assert events == []

    def test_multi_entry_put_is_one_journal_batch(self, zsites):
        provider, consumer = zsites
        masters = _export_counters(provider, 3)
        replicas = [consumer.replicate(f"c{i}") for i in range(3)]
        for replica in replicas:
            replica.increment(10)
        batches = []
        provider.change_log.subscribe(batches.append)
        head = provider.change_log.latest_serial
        consumer.put_back_many(replicas)
        (batch,) = batches
        assert [event.serial for event in batch] == [head + 1, head + 2, head + 3]
        assert [event.oid for event in batch] == [obi_id_of(m) for m in masters]
        assert [event.version for event in batch] == [2, 2, 2]

    def test_entries_applied_before_a_failure_are_journaled(self, zsites, monkeypatch):
        provider, consumer = zsites
        masters = _export_counters(provider, 3)
        replicas = [consumer.replicate(f"c{i}") for i in range(3)]
        for replica in replicas:
            replica.increment(10)
        bump = provider.bump_master_version
        bumped = []

        def bump_fails_on_the_second_entry(oid):
            bumped.append(oid)
            if len(bumped) == 2:
                raise ReplicationError("version store failed")
            return bump(oid)

        monkeypatch.setattr(provider, "bump_master_version", bump_fails_on_the_second_entry)
        batches = []
        provider.change_log.subscribe(batches.append)
        with pytest.raises(ReplicationError, match="version store failed"):
            consumer.put_back_many(replicas)
        # Entry 0 was applied before entry 1 failed: it is journaled, so no
        # applied change can be missing from the feed; entry 2 is untouched.
        assert [provider.version_of(m) for m in masters] == [2, 1, 1]
        assert masters[2].value == 2
        (batch,) = batches
        assert [(event.oid, event.version) for event in batch] == [(obi_id_of(masters[0]), 2)]

    def test_an_entry_of_the_wrong_class_changes_and_journals_nothing(self, zsites):
        provider, consumer = zsites
        masters = _export_counters(provider, 3)
        provider.export(Box("boxed"), name="box")
        replicas = [consumer.replicate(f"c{i}") for i in range(3)]
        for replica in replicas:
            replica.increment(10)
        # The frame's second state is a Box; the second entry names a Counter.
        package = build_put(consumer, [replicas[0], consumer.replicate("box"), replicas[2]])
        package.entries[1] = PutEntry(obi_id=obi_id_of(replicas[1]))
        events = []
        provider.change_log.subscribe(events.append)
        head = provider.change_log.latest_serial
        via_first = consumer.replica_info(obi_id_of(replicas[0])).provider
        with pytest.raises(ReplicationError, match="must decode to an instance of Counter"):
            consumer.endpoint.invoke(via_first, "put", (package,))
        assert [m.value for m in masters] == [0, 1, 2]
        assert [provider.version_of(m) for m in masters] == [1, 1, 1]
        assert provider.change_log.latest_serial == head
        assert events == []

    def test_a_frame_with_another_entry_count_is_refused(self, zsites):
        provider, consumer = zsites
        masters = _export_counters(provider, 2)
        replicas = [consumer.replicate(f"c{i}") for i in range(2)]
        for replica in replicas:
            replica.increment(10)
        package = build_put(consumer, replicas)
        package.payload = build_put(consumer, replicas[:1]).payload
        via_first = consumer.replica_info(obi_id_of(replicas[0])).provider
        with pytest.raises(ReplicationError, match="a list of 2 instance frames"):
            consumer.endpoint.invoke(via_first, "put", (package,))
        package.payload = Encoder(consumer.registry).encode("not a list")
        with pytest.raises(ReplicationError, match="a list of 2 instance frames"):
            consumer.endpoint.invoke(via_first, "put", (package,))
        assert [m.value for m in masters] == [0, 1]
