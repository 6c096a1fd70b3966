"""Role mechanics: subscribe, push, catch-up, bootstrap, write-through.

The group fixture is a primary ``P`` with followers ``F1``/``F2`` on the
deterministic loopback world (``test_feed_tcp.py`` re-runs the
scenarios on TCP); every test drives real RMI traffic through
the exported feed service, not role objects called directly.
"""

import pytest

from repro.core.meta import obi_id_of
from repro.core.packages import FeedSubscribeRequest
from repro.core.telemetry import snapshot
from repro.core.versions import ChangeLog
from repro.util.errors import FeedError, ProtocolError
from tests.feed.conftest import mirror_of
from tests.models import Box

pytestmark = []


class TestSubscribe:
    def test_join_mirrors_every_existing_master(self, group):
        _world, primary, f1, _f2, box = group
        mirror = mirror_of(f1, box)
        assert mirror is not None and mirror is not box
        assert mirror.get() == 1
        assert f1.last_applied_serial == primary.site.change_log.latest_serial

    def test_masters_exported_before_the_feed_are_seeded(self, group):
        # The fixture's Box predates FeedPrimary: its journal entry was
        # seeded at role creation, which is exactly what the join above
        # replayed.  A second pre-feed master must arrive the same way.
        world, primary, _f1, _f2, _box = group
        extra = Box("pre-feed")
        primary.site.export(extra, name="extra")
        late = world.create_site("F3").feed_follow("P")
        assert mirror_of(late, extra).get() == "pre-feed"

    def test_follower_refuses_to_serve_subscriptions(self, group):
        _world, _primary, f1, _f2, _box = group
        with pytest.raises(FeedError, match="follower"):
            f1.handle_subscribe(FeedSubscribeRequest(site_id="X", last_serial=0))

    def test_following_an_unupgraded_site_is_refused_cleanly(self, feed_world):
        feed_world.create_site("NOFEED")  # exports no feed service
        joiner = feed_world.create_site("F1")
        with pytest.raises(ProtocolError, match="no exported object 'obj:feed'"):
            joiner.feed_follow("NOFEED")

    def test_unupgraded_subscriber_is_stalled_not_poisonous(self, group):
        # An operator subscribes a site that never exported a feed
        # service; its push fails with the skeleton's ProtocolError, which
        # stalls it, and the healthy followers keep receiving frames.
        world, primary, f1, _f2, box = group
        world.create_site("NOFEED")
        primary.handle_subscribe(FeedSubscribeRequest(site_id="NOFEED", last_serial=0))
        box.set(2)
        primary.site.touch(box)
        assert mirror_of(f1, box).get() == 2
        assert "NOFEED" not in primary.subscriber_serials()
        assert primary.site.feed_stats.snapshot()["push_failures"] == 1


class TestPush:
    def test_touch_propagates_to_every_follower(self, group):
        _world, primary, f1, f2, box = group
        box.set(2)
        primary.site.touch(box)
        assert mirror_of(f1, box).get() == 2
        assert mirror_of(f2, box).get() == 2
        assert f1.site.feed_stats.snapshot()["lag_serials"] == 0

    def test_new_masters_flow_through_the_feed(self, group):
        _world, primary, f1, _f2, _box = group
        late = Box("late")
        primary.site.export(late, name="late")
        primary.site.touch(late)
        assert mirror_of(f1, late).get() == "late"

    def test_partitioned_follower_stalls_without_failing_the_put(self, group):
        world, primary, f1, f2, box = group
        box.set(2)
        primary.site.touch(box)  # both followers have taken a push
        world.network.partition({"P"}, {"F2"})
        box.set(3)
        primary.site.touch(box)  # the writer never sees F2's failure
        assert mirror_of(f1, box).get() == 3
        assert mirror_of(f2, box).get() == 2
        assert primary.subscriber_serials() == {"F1": primary.site.change_log.latest_serial}
        assert primary.site.feed_stats.snapshot()["push_failures"] == 1

    def test_stale_frames_are_deduped_by_version(self, group):
        _world, primary, f1, _f2, box = group
        box.set(2)
        primary.site.touch(box)
        applied_before = f1.site.feed_stats.snapshot()["frames_applied"]
        # Re-subscribing replays the journal tail; every frame loses to
        # the version-monotonic guard, so nothing is re-applied.
        f1.start("P")
        assert mirror_of(f1, box).get() == 2
        assert f1.site.feed_stats.snapshot()["frames_applied"] == applied_before


class TestOneBatchPerPut:
    """A put's events reach each follower as one ``FeedBatch``."""

    @pytest.fixture
    def wide_group(self, group):
        """The group plus two more exported boxes, and a tap on the
        batches each follower is handed."""
        world, primary, f1, f2, box = group
        boxes = [box, Box(2), Box(3)]
        for i, extra in enumerate(boxes[1:]):
            primary.site.export(extra, name=f"box{i + 2}")
            primary.site.touch(extra)
        received = {}
        for follower in (f1, f2):
            batches = received[follower.site.name] = []
            handle = follower.handle_events

            def tapped(batch, batches=batches, handle=handle):
                batches.append(batch)
                return handle(batch)

            follower.handle_events = tapped
        return world, primary, (f1, f2), boxes, received

    def test_three_entry_put_is_one_three_frame_batch_per_follower(self, wide_group):
        world, primary, followers, boxes, received = wide_group
        writer = world.create_site("W")
        replicas = [writer.replicate(name) for name in ("box", "box2", "box3")]
        for replica in replicas:
            replica.set(replica.get() * 100)
        head = primary.site.change_log.latest_serial
        before = world.network.stats.total_messages
        versions = writer.put_back_many(replicas)
        # One put, fanned out as one feed_events round trip per follower.
        assert world.network.stats.total_messages - before == 2 + 2 * len(followers)
        assert [b.get() for b in boxes] == [100, 200, 300]
        assert sorted(versions) == sorted(obi_id_of(b) for b in boxes)
        latest = primary.site.change_log.latest_serial
        assert latest == head + 3
        for follower in followers:
            (batch,) = received[follower.site.name]
            assert [frame.serial for frame in batch.frames] == [head + 1, head + 2, head + 3]
            assert batch.latest_serial == latest
            assert follower.last_applied_serial == latest
            assert [mirror_of(follower, b).get() for b in boxes] == [100, 200, 300]
        assert primary.subscriber_serials() == {"F1": latest, "F2": latest}

    def test_put_through_still_acks_on_its_own_echo(self, wide_group):
        _world, primary, (f1, f2), boxes, received = wide_group
        mirror = mirror_of(f1, boxes[1])
        mirror.set("through")
        versions = f1.put_through(mirror)
        assert boxes[1].get() == "through"
        assert mirror_of(f2, boxes[1]).get() == "through"
        assert f1.site.master_version(mirror) == versions[obi_id_of(boxes[1])]
        assert [len(batch.frames) for batch in received["F1"]] == [1]

    def test_seeding_pushes_unjournaled_masters_as_one_batch(self, wide_group):
        world, primary, (f1, _f2), _boxes, received = wide_group
        late = [Box(f"late{i}") for i in range(3)]
        for i, box in enumerate(late):
            primary.site.export(box, name=f"late{i}")  # exported, never written
        world.create_site("F3").feed_follow("P")  # a subscription seeds the journal
        assert [len(batch.frames) for batch in received["F1"]] == [3]
        assert [mirror_of(f1, box).get() for box in late] == ["late0", "late1", "late2"]


class TestCatchUpAndBootstrap:
    def test_reconnect_catches_up_from_cursor(self, group):
        world, primary, f1, _f2, box = group
        world.network.partition({"P"}, {"F1"})
        box.set(10)
        primary.site.touch(box)  # F1's push fails; it is stalled
        assert mirror_of(f1, box).get() == 1
        world.network.connectivity.heal()
        f1.start("P")
        assert mirror_of(f1, box).get() == 10
        assert f1.site.feed_stats.snapshot()["lag_serials"] == 0

    def test_retention_gap_downgrades_to_snapshot_bootstrap(self, feed_world):
        primary_site = feed_world.create_site("P")
        primary_site.change_log = ChangeLog(journal_retention=4)
        box = Box(0)
        primary_site.export(box, name="box")
        primary = primary_site.feed_primary()
        for value in range(1, 11):
            box.set(value)
            primary_site.touch(box)
        late = feed_world.create_site("F1").feed_follow("P")
        assert mirror_of(late, box).get() == 10
        assert late.site.feed_stats.snapshot()["snapshot_bootstraps"] == 1
        assert primary_site.feed_stats.snapshot()["snapshots_served"] == 1

    def test_join_rejournals_nothing_rolled_out_of_retention(self, feed_world):
        # Every master was journaled once, but the journal only retains the
        # last four events: the two earliest oids are no longer in it.  They
        # still have history, so a joining follower must not re-journal them.
        primary_site = feed_world.create_site("P")
        primary_site.change_log = ChangeLog(journal_retention=4)
        primary_site.feed_primary()
        boxes = [Box(index) for index in range(6)]
        for index, box in enumerate(boxes):
            primary_site.export(box, name=f"box{index}")
            primary_site.touch(box)
        head = primary_site.change_log.latest_serial
        assert head == 6 and primary_site.change_log.earliest_serial == 3
        late = feed_world.create_site("F1").feed_follow("P")
        assert primary_site.change_log.latest_serial == head
        assert [mirror_of(late, box).get() for box in boxes] == list(range(6))

    def test_live_join_does_not_disturb_the_write_path(self, group):
        # Writes land immediately before and after a third follower
        # joins mid-stream: nothing quiesces, nobody regresses.
        world, primary, f1, f2, box = group
        box.set(2)
        primary.site.touch(box)
        f3 = world.create_site("F3").feed_follow("P")
        box.set(3)
        primary.site.touch(box)
        for follower in (f1, f2, f3):
            assert mirror_of(follower, box).get() == 3
            assert follower.site.feed_stats.snapshot()["lag_serials"] == 0


class TestWriteThrough:
    def test_put_through_lands_at_primary_and_peers(self, group):
        _world, primary, f1, f2, box = group
        mirror = mirror_of(f1, box)
        mirror.set(42)
        versions = f1.put_through(mirror)
        assert box.get() == 42  # landed at the primary
        assert mirror_of(f2, box).get() == 42  # fanned out to peers
        oid = obi_id_of(box)
        assert versions[oid] == primary.site.master_version(box)
        # The ack condition: our own mirror caught up to the put version.
        assert f1.site.master_version(mirror) >= versions[oid]

    def test_put_through_without_provider_is_typed(self, group):
        _world, _primary, f1, _f2, _box = group
        stranger = Box("unseen")
        with pytest.raises(FeedError, match="write-through target"):
            f1.put_through(stranger)


class TestTelemetry:
    def test_feed_line_renders_role_epoch_and_lag(self, group):
        _world, primary, f1, _f2, box = group
        box.set(2)
        primary.site.touch(box)
        primary_text = snapshot(primary.site).render()
        follower_text = snapshot(f1.site).render()
        assert "feed    : role primary" in primary_text
        assert "role follower" in follower_text
        assert "lag 0 serials" in follower_text
