"""ChangeLog journal hardening: serials, compaction, epoch, observers.

PR 10's feed layer sits on these primitives, but they are useful (and
tested) on their own: dense journal serials, mirror-side numbering,
observer discipline, and a journal compacted to each oid's latest event,
so a join from any cursor is exactly the oids changed since.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.versions import ChangeLog, FeedEvent


class TestJournalSerials:
    def test_serials_are_dense_from_one(self):
        log = ChangeLog()
        assert log.latest_serial == 0
        assert log.record("oid:1", 1) == 1
        assert log.record("oid:2", 1) == 2
        assert log.latest_serial == 2

    def test_events_since_returns_strict_tail(self):
        log = ChangeLog()
        for version in range(1, 4):
            log.record("oid:1", version)
        log.record("oid:2", 1)
        log.record("oid:1", 4)
        tail = log.events_since(3)
        assert tail == [FeedEvent(4, "oid:2", 1), FeedEvent(5, "oid:1", 4)]
        assert log.events_since(4) == [FeedEvent(5, "oid:1", 4)]
        assert log.events_since(5) == []
        assert log.events_since(99) == []  # ahead of the head: nothing to replay

    def test_record_mirror_continues_the_group_numbering(self):
        log = ChangeLog()
        log.record_mirror(7, "oid:1", 3)
        assert log.latest_serial == 7
        # A local write after promotion picks up where the group left off.
        assert log.record("oid:2", 1) == 8

    def test_advance_numbers_past_a_covered_serial(self):
        log = ChangeLog()
        log.record_mirror(2, "oid:1", 1)
        log.advance(5)  # a join reply covered serials 3-5 with no event
        log.advance(4)  # never backwards
        assert log.latest_serial == 5 and log.events_since(2) == []
        assert log.record("oid:1", 2) == 6

    def test_record_mirror_marks_the_oid_journaled(self):
        log = ChangeLog()
        log.record_mirror(1, "oid:1", 1)
        assert log.has_history("oid:1")
        assert not log.has_history("oid:2")


class TestHistory:
    def test_history_outlives_compaction(self):
        log = ChangeLog()
        for index in range(5):
            log.record(f"oid:{index}", 1)
        for version in range(2, 600):
            log.record("oid:0", version)
        assert [event.oid for event in log.events_since(3)] == ["oid:3", "oid:4", "oid:0"]
        assert all(log.has_history(f"oid:{index}") for index in range(5))

    def test_drop_forgets_the_object(self):
        log = ChangeLog()
        log.record("x", 2)
        log.drop("x")
        assert not log.has_history("x")
        assert log.events_since(0) == []
        log.drop("never-journaled")  # dropping an unknown oid is a no-op


OIDS = [f"oid:{index}" for index in range(4)]
_local = st.tuples(
    st.just("local"),
    st.lists(st.tuples(st.sampled_from(OIDS), st.integers(1, 9)), min_size=1, max_size=3),
)
_mirror = st.tuples(
    st.just("mirror"), st.integers(1, 40), st.sampled_from(OIDS), st.integers(1, 9)
)


@given(st.lists(st.one_of(_local, _mirror), max_size=25))
@settings(max_examples=200, deadline=None)
def test_join_set_is_each_oids_highest_serial_past_the_cursor(operations):
    """Whatever the mix of local records and (out-of-order, stale)
    mirrors, a join from any cursor is one event per oid whose highest
    recorded serial is past it, at that serial and its version, in
    serial order."""
    log = ChangeLog()
    recorded: list[FeedEvent] = []  # every (serial, oid, version) recorded
    for operation in operations:
        if operation[0] == "local":
            serials = log.record_many(operation[1])
            recorded += [
                FeedEvent(serial, oid, version)
                for serial, (oid, version) in zip(serials, operation[1])
            ]
        else:
            _kind, serial, oid, version = operation
            log.record_mirror(serial, oid, version)
            recorded.append(FeedEvent(serial, oid, version))
    highest: dict[str, FeedEvent] = {}
    for event in recorded:  # the first event to reach an oid's top serial wins
        if event.oid not in highest or event.serial > highest[event.oid].serial:
            highest[event.oid] = event
    head = max((event.serial for event in recorded), default=0)
    assert log.latest_serial == head
    for cursor in range(head + 2):
        joined = log.events_since(cursor)
        expected = {event for event in highest.values() if event.serial > cursor}
        assert set(joined) == expected and len(joined) == len(expected)
        assert [event.serial for event in joined] == sorted(e.serial for e in joined)


class TestObservers:
    def test_observer_sees_every_local_record(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.record("oid:1", 1)
        assert seen == [[FeedEvent(1, "oid:1", 1)]]

    def test_a_batch_gets_dense_serials_and_one_notification(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.record("oid:0", 1)
        serials = log.record_many([("oid:1", 2), ("oid:2", 5), ("oid:1", 3)])
        assert serials == [2, 3, 4]
        assert log.latest_serial == 4
        assert [[event.serial for event in batch] for batch in seen] == [[1], [2, 3, 4]]
        assert seen[1][1] == FeedEvent(3, "oid:2", 5)
        # The journal keeps each oid's latest event: oid:1's serial 2 is gone.
        assert [event.serial for event in log.events_since(1)] == [3, 4]

    def test_an_empty_batch_is_silent(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        assert log.record_many([]) == []
        assert seen == [] and log.latest_serial == 0

    def test_mirrored_events_do_not_notify(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.record_mirror(5, "oid:1", 2)
        assert seen == []

    def test_unsubscribe_stops_delivery(self):
        log, seen = ChangeLog(), []
        log.subscribe(seen.append)
        log.unsubscribe(seen.append)
        log.record("oid:1", 1)
        assert seen == []


class TestEpoch:
    def test_adopt_is_monotonic(self):
        log = ChangeLog()
        assert log.epoch == 0
        assert log.adopt_epoch(3) == 3
        assert log.adopt_epoch(1) == 3  # never goes backwards
        assert log.epoch == 3
