"""Delta synchronization engine tests (PR 4).

Covers the four layers end to end: dirty tracking (``core.versions``),
the delta put/refresh protocol with its ``NEED_FULL`` downgrades, the
typed ``UnknownReplicaError``, cluster delta puts (loopback and TCP),
and wire compatibility with pre-delta peers that lack the
``put_delta``/``get_delta`` verbs.
"""

import pytest

from repro.core.cluster import cluster_members
from repro.core.interfaces import Cluster, Incremental
from repro.core.meta import obi_id_of
from repro.core.packages import PutDeltaEntry, PutDeltaPackage, PutEntry, PutPackage
from repro.core.replication import apply_put, apply_put_delta
from repro.core.runtime import World
from repro.core.versions import ChangeLog, DirtyTracker
from repro.serial.delta import Fingerprinter
from repro.serial.registry import global_registry
from repro.util.errors import ReplicationError, UnknownReplicaError
from tests.models import Box, Chain, Folder, make_chain


@pytest.fixture
def dsites(zero_world):
    """(provider, consumer) with delta sync enabled on both sides."""
    provider = zero_world.create_site("S2")
    consumer = zero_world.create_site("S1")
    provider.delta_sync = True
    consumer.delta_sync = True
    return provider, consumer


def _messages(world) -> int:
    stats = world.network.stats
    return stats.link("S1", "S2").messages + stats.link("S2", "S1").messages


# ----------------------------------------------------------------------
# layer 1: dirty tracking
# ----------------------------------------------------------------------
class TestDirtyTracker:
    @pytest.fixture
    def tracker(self):
        return DirtyTracker(Fingerprinter(global_registry))

    def test_capture_requires_enrollment(self, tracker):
        assert tracker.capture(Box(1)) is None

    def test_enrolled_object_starts_clean(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        snap = tracker.capture(box)
        assert snap is not None and snap.clean and not snap.whole

    def test_setattr_marks_field_dirty(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        box.set(2)
        snap = tracker.capture(box)
        assert snap.fields == frozenset({"value"})
        assert not snap.whole

    def test_commit_rebaselines_and_bumps_sync_version(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        before = tracker.sync_version(box)
        box.set(2)
        tracker.commit(box, tracker.capture(box))
        assert tracker.capture(box).clean
        assert tracker.sync_version(box) == before + 1

    def test_concurrent_write_survives_inflight_commit(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        box.set(2)
        snap = tracker.capture(box)
        box.set(3)  # lands while the put is on the wire
        tracker.commit(box, snap)
        assert tracker.capture(box).fields == frozenset({"value"})

    def test_dict_surgery_downgrades_to_whole(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        vars(box)["stowaway"] = 7  # bypasses the instrumented __setattr__
        assert tracker.capture(box).whole

    def test_deleted_field_downgrades_to_whole(self, tracker):
        chain = Chain(index=1)
        tracker.enroll(chain)
        del chain.payload
        assert tracker.capture(chain).whole

    def test_container_mutation_detected_by_fingerprint(self, tracker):
        folder = Folder(name="docs")
        tracker.enroll(folder)
        folder.add("a", "report")  # in-place list/dict mutation, no setattr
        snap = tracker.capture(folder)
        assert not snap.whole
        assert snap.fields == frozenset({"children", "index"})

    def test_mark_whole_forces_full_path(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        tracker.mark_whole(box)
        assert tracker.capture(box).whole

    def test_forget_stops_tracking(self, tracker):
        box = Box(1)
        tracker.enroll(box)
        tracker.forget(box)
        assert not tracker.is_enrolled(box)
        assert tracker.capture(box) is None


class TestChangeLog:
    def test_fields_since_unions_the_range(self):
        log = ChangeLog()
        log.record("x", 2, frozenset({"a"}))
        log.record("x", 3, frozenset({"b"}))
        assert log.fields_since("x", 1, 3) == frozenset({"a", "b"})

    def test_current_at_or_below_base_is_empty(self):
        log = ChangeLog()
        assert log.fields_since("x", 3, 3) == frozenset()
        assert log.fields_since("x", 5, 3) == frozenset()

    def test_whole_state_entry_poisons_the_range(self):
        log = ChangeLog()
        log.record("x", 2, frozenset({"a"}))
        log.record("x", 3, None)  # full put / blanket touch
        assert log.fields_since("x", 1, 3) is None
        # ...but a range past the poison is servable again.
        log.record("x", 4, frozenset({"c"}))
        assert log.fields_since("x", 3, 4) == frozenset({"c"})

    def test_uncovered_version_in_range_is_conservative(self):
        log = ChangeLog()
        log.record("x", 3, frozenset({"b"}))  # version 2 never recorded
        assert log.fields_since("x", 1, 3) is None

    def test_retention_gap_is_conservative(self):
        log = ChangeLog(retention=4)
        for version in range(2, 12):
            log.record("x", version, frozenset({f"f{version}"}))
        assert log.fields_since("x", 1, 11) is None  # evicted early versions
        assert log.fields_since("x", 8, 11) == frozenset({"f9", "f10", "f11"})

    def test_drop_forgets_the_object(self):
        log = ChangeLog()
        log.record("x", 2, frozenset({"a"}))
        log.drop("x")
        assert log.fields_since("x", 1, 2) is None


# ----------------------------------------------------------------------
# layer 3: the delta put/refresh protocol
# ----------------------------------------------------------------------
class TestDeltaPutBack:
    def test_delta_put_merges_dirty_field_only(self, dsites):
        provider, consumer = dsites
        master = Chain(index=1)
        master.payload = b"\xa5" * 256
        provider.export(master, name="chain")
        replica = consumer.replicate("chain", mode=Incremental(1))
        replica.set_index(42)
        version = consumer.put_back(replica)
        assert master.index == 42
        assert master.payload == b"\xa5" * 256
        assert version == provider.master_version(master)
        assert consumer.sync_stats.puts_delta == 1
        assert consumer.sync_stats.puts_full == 0
        assert consumer.sync_stats.delta_bytes_saved > 0

    def test_clean_put_back_is_a_network_free_noop(self, dsites):
        provider, consumer = dsites
        provider.export(Box(5), name="box")
        replica = consumer.replicate("box")
        before = _messages(consumer.world)
        version = consumer.put_back(replica)
        assert _messages(consumer.world) == before
        assert consumer.sync_stats.puts_noop == 1
        assert version == consumer.replica_info(obi_id_of(replica)).version

    def test_dict_surgery_falls_back_to_full_put(self, dsites):
        provider, consumer = dsites
        master = Box(5)
        provider.export(master, name="box")
        replica = consumer.replicate("box")
        vars(replica)["stowaway"] = 7
        consumer.put_back(replica)
        assert consumer.sync_stats.puts_delta == 0
        assert consumer.sync_stats.puts_full == 1
        assert vars(master)["stowaway"] == 7

    def test_version_mismatch_downgrades_to_full(self, dsites):
        provider, consumer = dsites
        master = Chain(index=1)
        provider.export(master, name="chain")
        replica = consumer.replicate("chain", mode=Incremental(1))
        provider.touch(master)  # concurrent master-side change
        replica.set_index(7)
        consumer.put_back(replica)
        assert consumer.sync_stats.need_full_downgrades == 1
        assert consumer.sync_stats.puts_full == 1
        assert master.index == 7

    def test_converged_states_fingerprint_identically(self, dsites):
        provider, consumer = dsites
        master = Chain(index=1)
        provider.export(master, name="chain")
        replica = consumer.replicate("chain", mode=Incremental(1))
        replica.set_index(42)
        consumer.put_back(replica)
        assert provider.fingerprinter.of_object(master) == consumer.fingerprinter.of_object(
            replica
        )


class TestDeltaRefresh:
    def test_refresh_ships_only_announced_fields(self, dsites):
        provider, consumer = dsites
        master = Chain(index=1)
        master.payload = b"\xa5" * 256
        provider.export(master, name="chain")
        replica = consumer.replicate("chain", mode=Incremental(1))
        master.index = 99
        provider.touch(master, fields=("index",))
        consumer.refresh(replica)
        assert replica.index == 99
        assert consumer.sync_stats.refreshes_delta == 1
        assert consumer.sync_stats.refreshes_full == 0

    def test_current_replica_refreshes_with_empty_delta(self, dsites):
        provider, consumer = dsites
        provider.export(Box(5), name="box")
        replica = consumer.replicate("box")
        consumer.refresh(replica)
        assert consumer.sync_stats.refreshes_delta == 1
        assert replica.get() == 5

    def test_blanket_touch_forces_full_refresh(self, dsites):
        provider, consumer = dsites
        master = Box(5)
        provider.export(master, name="box")
        replica = consumer.replicate("box")
        master.value = 6
        provider.touch(master)  # no field list: poisons the change log
        consumer.refresh(replica)
        assert replica.get() == 6
        assert consumer.sync_stats.need_full_downgrades == 1
        assert consumer.sync_stats.refreshes_full == 1

    def test_dirty_replica_takes_full_refresh_and_is_overwritten(self, dsites):
        provider, consumer = dsites
        master = Box(5)
        provider.export(master, name="box")
        replica = consumer.replicate("box")
        replica.set(123)  # local change refresh must overwrite
        consumer.refresh(replica)
        assert replica.get() == 5
        assert consumer.sync_stats.refreshes_full == 1
        assert consumer.sync_stats.refreshes_delta == 0


# ----------------------------------------------------------------------
# satellite: typed UnknownReplicaError
# ----------------------------------------------------------------------
class TestUnknownReplica:
    def test_is_a_replication_error(self):
        assert issubclass(UnknownReplicaError, ReplicationError)
        assert not issubclass(UnknownReplicaError, KeyError)

    def test_apply_put_raises_typed_error_for_unknown_id(self, zsites):
        provider, _consumer = zsites
        package = PutPackage(entries=[PutEntry(obi_id="ghost")])
        with pytest.raises(UnknownReplicaError, match="ghost"):
            apply_put(provider, package)

    def test_apply_put_delta_raises_typed_error_for_unknown_id(self, zsites):
        provider, _consumer = zsites
        package = PutDeltaPackage(
            entries=[PutDeltaEntry(obi_id="ghost", base_version=1, payload=b"")]
        )
        with pytest.raises(UnknownReplicaError, match="ghost"):
            apply_put_delta(provider, package)

    def test_unknown_replica_error_crosses_the_wire(self, zsites):
        provider, consumer = zsites
        provider.export(Box(1), name="box")
        replica = consumer.replicate("box")
        ref = consumer.replica_info(obi_id_of(replica)).provider
        package = PutPackage(entries=[PutEntry(obi_id="ghost")])
        with pytest.raises(UnknownReplicaError, match="ghost"):
            consumer.endpoint.invoke(ref, "put", (package,))  # obilint: disable=OBI204 -- deliberately malformed put: the test ships a ghost id precisely because nothing acquired it


# ----------------------------------------------------------------------
# satellite: cluster put-back, loopback and TCP
# ----------------------------------------------------------------------
class TestClusterPutBack:
    def test_cluster_delta_put_ships_only_dirty_members(self, dsites):
        provider, consumer = dsites
        masters = make_chain(6)
        provider.export(masters, name="list")
        root = consumer.replicate("list", mode=Cluster(size=6))
        members = cluster_members(consumer, root)
        members[0].set_index(100)
        members[3].set_index(303)
        versions = consumer.put_back_cluster(root)
        assert set(versions) == {obi_id_of(members[0]), obi_id_of(members[3])}
        assert masters.index == 100
        node = masters
        for _ in range(3):
            node = node.next
        assert node.index == 303
        assert consumer.sync_stats.puts_delta == 1
        assert consumer.sync_stats.puts_full == 0

    def test_clean_cluster_put_is_a_network_free_noop(self, dsites):
        provider, consumer = dsites
        provider.export(make_chain(6), name="list")
        root = consumer.replicate("list", mode=Cluster(size=6))
        before = _messages(consumer.world)
        versions = consumer.put_back_cluster(root)
        assert _messages(consumer.world) == before
        assert consumer.sync_stats.puts_noop == 1
        assert len(versions) == 6  # every member reports its current version

    def test_cluster_full_put_still_works_with_delta_off(self, zsites):
        provider, consumer = zsites
        masters = make_chain(4)
        provider.export(masters, name="list")
        root = consumer.replicate("list", mode=Cluster(size=4))
        root.set_index(41)
        versions = consumer.put_back_cluster(root)
        assert len(versions) == 4
        assert masters.index == 41
        assert consumer.sync_stats.puts_full == 1

    def test_cluster_delta_put_over_tcp(self):
        with World.tcp() as world:
            provider = world.create_site("P")
            consumer = world.create_site("C")
            provider.delta_sync = True
            consumer.delta_sync = True
            masters = make_chain(4)
            provider.export(masters, name="list")
            root = consumer.replicate("list", mode=Cluster(size=4))
            members = cluster_members(consumer, root)
            members[1].set_index(111)
            versions = consumer.put_back_cluster(root)
            assert set(versions) == {obi_id_of(members[1])}
            assert masters.next.index == 111
            assert consumer.sync_stats.puts_delta == 1
            # Clean second sync: the no-op never touches the socket.
            assert consumer.put_back_cluster(root)
            assert consumer.sync_stats.puts_noop == 1


# ----------------------------------------------------------------------
# satellite: delta/full interop with unversioned peers
# ----------------------------------------------------------------------
class LegacyProxyIn:
    """A pre-delta provider: PR-2's control surface, no delta verbs."""

    def __init__(self, inner):
        self._inner = inner

    def get(self, mode=None):
        return self._inner.get(mode)

    def put(self, package):
        return self._inner.put(package)

    def demand(self, mode=None):
        return self._inner.demand(mode)

    def get_version(self):
        return self._inner.get_version()


def _downgrade_to_legacy(provider, master) -> None:
    """Replace ``master``'s exported proxy-in with a delta-less peer."""
    oid = obi_id_of(master)
    ref = provider._provider_refs[provider._stripe_of(oid)][oid]
    table = provider.endpoint.objects
    table._objects[ref.object_id] = LegacyProxyIn(table.get(ref.object_id))


class TestUnversionedPeerInterop:
    def test_put_falls_back_to_full_and_caches_the_probe(self, dsites):
        provider, consumer = dsites
        master = Box(1)
        provider.export(master, name="box")
        _downgrade_to_legacy(provider, master)
        replica = consumer.replicate("box")

        replica.set(2)
        consumer.put_back(replica)
        assert master.get() == 2
        assert consumer.sync_stats.puts_full == 1
        assert consumer.sync_stats.puts_delta == 0

        # The failed probe is cached per provider site: the second sync
        # goes straight to the full put (one request/response pair).
        before = _messages(consumer.world)
        replica.set(3)
        consumer.put_back(replica)
        assert master.get() == 3
        assert _messages(consumer.world) == before + 2
        assert consumer.sync_stats.puts_full == 2

    def test_refresh_falls_back_to_full(self, dsites):
        provider, consumer = dsites
        master = Box(1)
        provider.export(master, name="box")
        _downgrade_to_legacy(provider, master)
        replica = consumer.replicate("box")
        master.value = 9
        provider.touch(master, fields=("value",))
        consumer.refresh(replica)
        assert replica.get() == 9
        assert consumer.sync_stats.refreshes_full == 1
        assert consumer.sync_stats.refreshes_delta == 0

    def test_unversioned_consumer_against_versioned_provider(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        provider.delta_sync = True  # provider is delta-capable...
        master = Box(1)
        provider.export(master, name="box")
        replica = consumer.replicate("box")  # ...consumer is not
        replica.set(2)
        consumer.put_back(replica)
        assert master.get() == 2
        assert consumer.sync_stats.puts_full == 1
        assert consumer.sync_stats.puts_delta == 0


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestSyncTelemetry:
    def test_snapshot_carries_sync_counters(self, dsites):
        provider, consumer = dsites
        provider.export(Box(1), name="box")
        replica = consumer.replicate("box")
        replica.set(2)
        consumer.put_back(replica)
        consumer.put_back(replica)  # clean: no-op
        snap = consumer.sync_stats.snapshot()
        assert snap["puts_delta"] == 1
        assert snap["puts_noop"] == 1
        consumer.sync_stats.reset()
        assert consumer.sync_stats.snapshot()["puts_delta"] == 0

    def test_delta_frames_reach_the_serial_counters(self, dsites):
        """A delta put and a delta refresh are each one field-delta frame:
        one encode at the sender, one decode at the receiver."""
        provider, consumer = dsites
        master = Box(1)
        provider.export(master, name="box")
        replica = consumer.replicate("box")

        def frames(site):
            snap = site.serial_stats.snapshot()
            return snap["frames_encoded"], snap["frames_decoded"]

        replica.set(2)
        before_c, before_p = frames(consumer), frames(provider)
        consumer.put_back(replica)
        assert consumer.sync_stats.puts_delta == 1
        assert frames(consumer)[0] == before_c[0] + 1  # build_put_delta
        assert frames(provider)[1] == before_p[1] + 1  # apply_put_delta

        master.value = 3
        provider.touch(master, fields=("value",))
        before_c, before_p = frames(consumer), frames(provider)
        consumer.refresh(replica)
        assert consumer.sync_stats.refreshes_delta == 1
        assert frames(provider)[0] == before_p[0] + 1  # build_refresh_delta
        assert frames(consumer)[1] == before_c[1] + 1  # apply_refresh_delta
