"""ChangeLog journal hardening: serials, epoch, typed retention gaps.

PR 10's feed layer sits on these primitives, but they are useful (and
tested) on their own: dense journal serials, mirror-side numbering,
observer discipline, and the strict ``changed_fields`` variant that
raises :class:`RetentionGapError` where ``fields_since`` silently
downgraded.
"""

import pytest

from repro.core.versions import ChangeLog, FeedEvent
from repro.util.errors import ReplicationError, RetentionGapError


class TestJournalSerials:
    def test_serials_are_dense_from_one(self):
        log = ChangeLog()
        assert log.earliest_serial == 0 and log.latest_serial == 0
        assert log.record("oid:1", 1, frozenset({"value"})) == 1
        assert log.record("oid:2", 1, None) == 2
        assert log.earliest_serial == 1
        assert log.latest_serial == 2

    def test_events_since_returns_strict_tail(self):
        log = ChangeLog()
        for version in range(1, 6):
            log.record("oid:1", version, None)
        tail = log.events_since(3)
        assert [event.serial for event in tail] == [4, 5]
        assert tail[-1] == FeedEvent(5, "oid:1", 5, None)
        assert log.events_since(5) == []
        assert log.events_since(99) == []  # ahead of the head: nothing to replay

    def test_retention_gap_is_typed_and_carries_the_window(self):
        log = ChangeLog(journal_retention=4)
        for version in range(1, 11):
            log.record("oid:1", version, None)
        assert log.earliest_serial == 7
        with pytest.raises(RetentionGapError) as excinfo:
            log.events_since(2)
        gap = excinfo.value
        assert (gap.requested, gap.earliest, gap.latest) == (2, 7, 10)
        assert isinstance(gap, ReplicationError)  # routes through NEED_FULL paths
        # From the retention boundary the tail is still servable.
        assert [event.serial for event in log.events_since(6)] == [7, 8, 9, 10]

    def test_record_mirror_continues_the_group_numbering(self):
        log = ChangeLog()
        log.record_mirror(7, "oid:1", 3, None)
        assert log.latest_serial == 7
        # A local write after promotion picks up where the group left off.
        assert log.record("oid:2", 1, None) == 8

    def test_record_mirror_feeds_the_field_log_too(self):
        log = ChangeLog()
        log.record_mirror(1, "oid:1", 1, frozenset({"value"}))
        log.record_mirror(2, "oid:1", 2, frozenset({"index"}))
        assert log.changed_fields("oid:1", 0, 2) == frozenset({"value", "index"})


class TestObservers:
    def test_observer_sees_every_local_record(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.record("oid:1", 1, frozenset({"x"}))
        assert seen == [[FeedEvent(1, "oid:1", 1, frozenset({"x"}))]]

    def test_a_batch_gets_dense_serials_and_one_notification(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.record("oid:0", 1, None)
        serials = log.record_many(
            [("oid:1", 2, None), ("oid:2", 5, frozenset({"x"})), ("oid:1", 3, None)]
        )
        assert serials == [2, 3, 4]
        assert log.latest_serial == 4
        assert [[event.serial for event in batch] for batch in seen] == [[1], [2, 3, 4]]
        assert seen[1][1] == FeedEvent(3, "oid:2", 5, frozenset({"x"}))
        assert [event.serial for event in log.events_since(1)] == [2, 3, 4]
        # The per-oid field log is fed too.
        assert log.changed_fields("oid:2", 4, 5) == frozenset({"x"})
        assert log.changed_fields("oid:1", 1, 3) is None

    def test_an_empty_batch_is_silent(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        assert log.record_many([]) == []
        assert seen == [] and log.latest_serial == 0

    def test_mirrored_events_do_not_notify(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.record_mirror(5, "oid:1", 2, None)
        assert seen == []

    def test_unsubscribe_stops_delivery(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.unsubscribe(seen.append)
        log.record("oid:1", 1, None)
        assert seen == []


class TestEpoch:
    def test_adopt_is_monotonic(self):
        log = ChangeLog()
        assert log.epoch == 0
        assert log.adopt_epoch(3) == 3
        assert log.adopt_epoch(1) == 3  # never goes backwards
        assert log.epoch == 3

    def test_bump_advances_by_one(self):
        log = ChangeLog()
        log.adopt_epoch(2)
        assert log.bump_epoch() == 3


class TestChangedFieldsStrict:
    def test_gap_raises_instead_of_downgrading(self):
        log = ChangeLog(retention=2)
        for version in range(1, 6):
            log.record("oid:1", version, frozenset({f"f{version}"}))
        with pytest.raises(RetentionGapError):
            log.changed_fields("oid:1", 0, 5)
        # The lenient wrapper keeps the historical NEED_FULL contract.
        assert log.fields_since("oid:1", 0, 5) is None

    def test_whole_state_change_still_returns_none(self):
        log = ChangeLog()
        log.record("oid:1", 1, None)
        assert log.changed_fields("oid:1", 0, 1) is None

    def test_covered_range_unions_fields(self):
        log = ChangeLog()
        log.record("oid:1", 1, frozenset({"a"}))
        log.record("oid:1", 2, frozenset({"b"}))
        assert log.changed_fields("oid:1", 0, 2) == frozenset({"a", "b"})
        assert log.changed_fields("oid:1", 2, 2) == frozenset()
