"""Tests for reconnection reconciliation."""

import pytest

from repro.core.costs import CostModel
from repro.core.meta import obi_id_of
from repro.core.runtime import World
from repro.mobility.node import MobileNode
from repro.mobility.reconcile import (
    ReconcileAction,
    Reconciler,
    ReconcileReport,
    keep_local,
    keep_master,
)
from repro.rmi.acl import AccessPolicy
from repro.util.errors import ConsistencyError, ProtocolError, SecurityError
from tests.models import Counter


@pytest.fixture
def tracked(mobile):
    world, office, node, master = mobile
    replica = node.hoard("counter")  # MobileNode tracks on hoard
    return world, office, node, master, replica


class TestClassification:
    def test_up_to_date(self, tracked):
        _w, _office, node, _master, _replica = tracked
        report = node.reconciler.reconcile()
        assert report.count(ReconcileAction.UP_TO_DATE) == 1

    def test_dirty_local_pushes(self, tracked):
        _w, _office, node, master, replica = tracked
        replica.increment(4)
        assert node.reconciler.is_dirty(replica)
        report = node.reconciler.reconcile()
        assert report.count(ReconcileAction.PUSHED) == 1
        assert master.value == 4
        assert not node.reconciler.is_dirty(replica)

    def test_master_moved_pulls(self, tracked):
        _w, office, node, master, replica = tracked
        master.value = 8
        office.touch(master)
        report = node.reconciler.reconcile()
        assert report.count(ReconcileAction.PULLED) == 1
        assert replica.read() == 8

    def test_both_changed_is_conflict(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(1)
        master.value = 50
        office.touch(master)
        report = node.reconciler.reconcile()
        assert report.conflicts != []
        # Nothing was moved either way without a resolver.
        assert master.value == 50
        assert replica.read() == 1


class TestResolvers:
    def test_keep_local_overwrites_master(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(1)
        master.value = 50
        office.touch(master)
        report = node.reconciler.reconcile(on_conflict=keep_local)
        assert report.count(ReconcileAction.PUSHED) == 1
        assert master.value == 1

    def test_keep_master_discards_local(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(1)
        master.value = 50
        office.touch(master)
        report = node.reconciler.reconcile(on_conflict=keep_master)
        assert report.count(ReconcileAction.PULLED) == 1
        assert replica.read() == 50

    def test_custom_merge_resolver(self, tracked):
        _w, office, node, master, replica = tracked
        replica.increment(3)
        master.value = 10
        office.touch(master)

        def merge(site, rep):
            local = rep.read()
            site.refresh(rep)
            rep.value = rep.value + local
            site.put_back(rep)
            return ReconcileAction.PUSHED

        node.reconciler.reconcile(on_conflict=merge)
        assert master.value == 13


class TestBaselines:
    def test_untracked_replica_is_never_dirty(self, mobile):
        _w, _office, node, _master = mobile
        reconciler = Reconciler(node.site)
        replica = node.site.replicate("counter")
        replica.increment(9)
        # A second reconciler with no baseline for it:
        fresh = Reconciler(node.site)
        assert not fresh.is_dirty(replica)

    def test_refresh_resets_baseline(self, tracked):
        _w, office, node, master, replica = tracked
        master.value = 2
        office.touch(master)
        node.site.refresh(replica)
        assert not node.reconciler.is_dirty(replica)

    def test_report_repr_and_counts(self, tracked):
        _w, _office, node, _master, replica = tracked
        replica.increment()
        report = node.reconciler.reconcile()
        assert "pushed=1" in repr(report)


class TestEndToEndScenario:
    def test_full_offline_cycle(self, mobile):
        """hoard → disconnect → edit both sides → reconnect → resolve."""
        _w, office, node, master = mobile
        replica = node.hoard("counter")
        node.go_offline(voluntary=True)
        replica.increment(5)
        master.value = 100
        office.touch(master)
        report = node.go_online()
        assert report is not None
        assert report.conflicts != []
        final = node.reconciler.reconcile(on_conflict=keep_local)
        assert master.value == 5


# ----------------------------------------------------------------------
# the batched pass: O(sites) round trips, per-object semantics
# ----------------------------------------------------------------------
def _office_with(world, name, count):
    """A provider site exporting ``count`` counters as ``<name>-<i>``."""
    site = world.create_site(name)
    masters = [Counter(i) for i in range(count)]
    for i, master in enumerate(masters):
        site.export(master, name=f"{name}-{i}")
    return site, masters


def _hoard_all(node, name, count):
    return [node.hoard(f"{name}-{i}") for i in range(count)]


def _reconcile_per_object(reconciler, on_conflict=None):
    """Reference: the semantics table of ``reconcile.py`` applied one
    object at a time, each with its own probe and its own put."""
    site = reconciler.site
    report = ReconcileReport()
    for oid in sorted(reconciler._baselines):
        record = site.replica_info(oid)
        if record is None or record.provider is None:
            continue
        replica = record.obj
        moved = site.endpoint.invoke(record.provider, "get_version", ()) != record.version
        dirty = reconciler.is_dirty(replica)
        if not dirty and not moved:
            report.actions[oid] = ReconcileAction.UP_TO_DATE
        elif not dirty:
            site.refresh(replica)
            reconciler.track(replica)
            report.actions[oid] = ReconcileAction.PULLED
        elif not moved:
            site.put_back(replica)
            reconciler.track(replica)
            report.actions[oid] = ReconcileAction.PUSHED
        elif on_conflict is None:
            report.actions[oid] = ReconcileAction.CONFLICT
        else:
            report.actions[oid] = on_conflict(site, replica)
            reconciler.track(replica)
    return report


@pytest.fixture
def new_world():
    """Builds the world a batched-pass scenario runs in (overridden by the
    TCP re-run in ``test_reconcile_tcp.py``)."""
    return lambda: World.loopback(costs=CostModel.zero())


class TestBatchedPass:
    @pytest.fixture
    def fleet(self, new_world):
        """(world, node, {site name: (site, masters, replicas)}) with eight
        tracked counters on each of two provider sites."""
        with new_world() as world:
            world.create_site("NS")
            offices = {name: _office_with(world, name, 8) for name in ("hq", "branch")}
            node = MobileNode(world.create_site("pda"))
            fleet = {
                name: (site, masters, _hoard_all(node, name, 8))
                for name, (site, masters) in offices.items()
            }
            yield world, node, fleet

    def test_one_site_costs_two_round_trips(self, fleet):
        world, node, fleet = fleet
        _hq, _masters, replicas = fleet["hq"]
        for replica in fleet["branch"][2]:
            node.site.evict(replica)  # leave one provider site tracked
        for replica in replicas[:3]:
            replica.increment(10)
        before = world.network.stats.total_messages
        report = node.reconciler.reconcile()
        # 8 tracked / 3 dirty: one batched probe + one 3-entry put.
        assert world.network.stats.total_messages - before == 4
        assert report.count(ReconcileAction.PUSHED) == 3
        assert report.count(ReconcileAction.UP_TO_DATE) == 5

    def test_two_sites_cost_two_round_trips_each(self, fleet):
        world, node, fleet = fleet
        for _site, _masters, replicas in fleet.values():
            replicas[0].increment(10)
            replicas[5].increment(10)
        stats = world.network.stats
        before = stats.total_messages
        before_link = {name: stats.link("pda", name).messages for name in fleet}
        report = node.reconciler.reconcile()
        assert stats.total_messages - before == 8
        for name in fleet:
            assert stats.link("pda", name).messages == before_link[name] + 2
        assert report.count(ReconcileAction.PUSHED) == 4
        for _site, masters, _replicas in fleet.values():
            assert [m.value for m in masters] == [10, 1, 2, 3, 4, 15, 6, 7]

    def test_clean_pass_never_puts(self, fleet):
        world, node, _fleet = fleet
        before = world.network.stats.total_messages
        report = node.reconciler.reconcile()
        assert world.network.stats.total_messages - before == 4  # probes only
        assert report.count(ReconcileAction.UP_TO_DATE) == 16

    def test_probe_costs_bytes_per_oid(self, new_world):
        """The probe is one request naming each oid once; nothing else
        grows with the number of replicas."""
        count = 32
        with new_world() as world:
            world.create_site("NS")
            _office_with(world, "hq", count)
            node = MobileNode(world.create_site("pda"))
            replicas = _hoard_all(node, "hq", count)
            link = world.network.stats.link("pda", "hq")
            messages, sent = link.messages, link.bytes
            report = node.reconciler.reconcile()
            assert report.count(ReconcileAction.UP_TO_DATE) == count
            assert link.messages - messages == 1
            oid_bytes = sum(len(obi_id_of(r)) for r in replicas)
            assert link.bytes - sent <= oid_bytes + 8 * count + 200

    @pytest.mark.parametrize("resolver", [None, keep_local, keep_master])
    def test_mixed_pass_matches_the_per_object_table(self, new_world, resolver):
        def scenario(reconcile):
            with new_world() as world:
                world.create_site("NS")
                office, masters = _office_with(world, "hq", 8)
                node = MobileNode(world.create_site("pda"))
                replicas = _hoard_all(node, "hq", 8)
                # 0-1 up to date, 2-3 pulled, 4-5 pushed, 6-7 in conflict
                for i in (4, 5, 6, 7):
                    replicas[i].increment(100)
                for i in (2, 3, 6, 7):
                    masters[i].value += 1000
                    office.touch(masters[i])
                report = reconcile(node.reconciler, on_conflict=resolver)
                oids = [obi_id_of(r) for r in replicas]
                return (
                    [report.actions[oid] for oid in oids],
                    [m.value for m in masters],
                    [r.value for r in replicas],
                    [office.version_of(m) for m in masters],
                    [node.site.replica_info(oid).version for oid in oids],
                    [node.reconciler.is_dirty(r) for r in replicas],
                )

        batched = scenario(Reconciler.reconcile)
        assert batched == scenario(_reconcile_per_object)
        actions = batched[0]
        assert actions[:6] == [ReconcileAction.UP_TO_DATE] * 2 + [
            ReconcileAction.PULLED
        ] * 2 + [ReconcileAction.PUSHED] * 2
        expected = {
            None: ReconcileAction.CONFLICT,
            keep_local: ReconcileAction.PUSHED,
            keep_master: ReconcileAction.PULLED,
        }[resolver]
        assert actions[6:] == [expected] * 2

    def test_failed_probe_raises_before_anything_moves(self, fleet):
        world, node, fleet = fleet
        hq, masters, replicas = fleet["hq"]
        replicas[0].increment(10)  # would be PUSHED
        masters[1].value = 77
        hq.touch(masters[1])  # would be PULLED
        hq.drop_master(obi_id_of(masters[4]))  # its probe now fails
        with pytest.raises(ProtocolError, match="no exported object"):
            node.reconciler.reconcile()
        assert masters[0].value == 0
        assert replicas[1].value == 1
        assert node.reconciler.is_dirty(replicas[0])

    def test_denied_probe_raises_before_anything_moves(self, new_world):
        """A guard that denies ``get_version`` fails the probe even when
        the probe arrives through another object's proxy-in."""
        with new_world() as world:
            world.create_site("NS")
            office = world.create_site("hq")
            open_master, guarded_master = Counter(1), Counter(2)
            # Oids in reconcile order: the probe travels through the first
            # tracked oid's proxy-in, here the one that allows it.
            vars(open_master)["_obi_id"] = "oid:probe-a"
            vars(guarded_master)["_obi_id"] = "oid:probe-b"
            open_ref = office.export_guarded(
                open_master, AccessPolicy(default_allow=True), name="open"
            )
            guarded_ref = office.export_guarded(
                guarded_master,
                AccessPolicy(default_allow=True).deny("pda", "get_version"),
                name="guarded",
            )
            node = MobileNode(world.create_site("pda"))
            open_replica = node.hoard("open")
            node.hoard("guarded")
            open_replica.increment(10)  # would be PUSHED
            with pytest.raises(SecurityError):
                node.reconciler.reconcile()
            objects = office.endpoint.objects
            assert objects.get(guarded_ref.object_id).denials == 1
            assert objects.get(open_ref.object_id).denials == 0
            assert open_master.value == 1
            assert node.reconciler.is_dirty(open_replica)


class TestBaselineUpkeep:
    def test_evicted_replicas_lose_their_baselines(self, new_world):
        with new_world() as world:
            world.create_site("NS")
            _office_with(world, "hq", 8)
            node = MobileNode(world.create_site("pda"))
            replicas = _hoard_all(node, "hq", 8)
            for replica in replicas[:3]:
                node.site.evict(replica)
            report = node.reconciler.reconcile()
            assert report.count(ReconcileAction.UP_TO_DATE) == 5
            assert sorted(node.reconciler._baselines) == sorted(
                obi_id_of(r) for r in replicas[3:]
            )

    def test_one_baseline_capture_per_pulled_object(self, new_world, monkeypatch):
        with new_world() as world:
            world.create_site("NS")
            office, masters = _office_with(world, "hq", 4)
            node = MobileNode(world.create_site("pda"))
            replicas = _hoard_all(node, "hq", 4)
            for master in masters[:2]:
                master.value += 100
                office.touch(master)
            reconciler = node.reconciler
            captured = []
            track = reconciler.track

            def spy(replica):
                captured.append(obi_id_of(replica))
                return track(replica)

            monkeypatch.setattr(reconciler, "track", spy)
            report = reconciler.reconcile()
            assert report.count(ReconcileAction.PULLED) == 2
            assert sorted(captured) == sorted(obi_id_of(r) for r in replicas[:2])
            assert [r.value for r in replicas] == [100, 101, 2, 3]
            assert not any(reconciler.is_dirty(r) for r in replicas)
