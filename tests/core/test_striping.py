"""Tests for the Site's table lock and the tables it guards.

The lock is reentrant and counts contention; the tables keep
registration order; and concurrent table churn across 32 threads
neither loses nor duplicates entries.
"""

import threading

from repro.core.meta import obi_id_of
from repro.core.striping import StripeLock
from tests.models import Box


class TestStripeLock:
    def test_reentrant_and_depth_tracked(self):
        lock = StripeLock()
        with lock:
            with lock:
                assert lock.depth == 2
        assert lock.depth == 0
        assert lock.max_depth == 2
        assert lock.waits == 0

    def test_contended_acquire_counts_a_wait(self):
        lock = StripeLock()
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                entered.set()
                release.wait(timeout=5)

        def contend():
            with lock:
                pass

        thread = threading.Thread(target=holder)
        thread.start()
        entered.wait(timeout=5)
        waiter = threading.Thread(target=contend)
        waiter.start()
        # Let the waiter hit the non-blocking fast path and fail it
        # (waits is bumped before the blocking acquire parks).
        while lock.waits == 0 and waiter.is_alive():
            pass
        release.set()
        thread.join(timeout=5)
        waiter.join(timeout=5)
        assert lock.waits >= 1


class TestRegistrationOrder:
    """The tables iterate in registration order: re-registering an entry
    keeps its place, and dropping then re-registering moves it to the end."""

    def test_iter_masters(self, zero_world):
        site = zero_world.create_site("m")
        boxes = [Box(i) for i in range(4)]
        for box in boxes:
            site.note_master(box)
        oids = [obi_id_of(box) for box in boxes]
        site.note_master(boxes[0])
        assert [oid for oid, _record in site.iter_masters()] == oids
        site.drop_master(oids[1])
        site.note_master(boxes[1])
        assert [oid for oid, _record in site.iter_masters()] == [
            oids[0], oids[2], oids[3], oids[1]
        ]

    def test_iter_replicas(self, zsites):
        provider, consumer = zsites
        for i in range(4):
            provider.export(Box(i), name=f"box:{i}")
        replicas = [consumer.replicate(f"box:{i}") for i in range(4)]
        oids = [obi_id_of(replica) for replica in replicas]

        def order():
            return [obi_id_of(record.obj) for record in consumer.iter_replicas()]

        assert order() == oids
        consumer.refresh(replicas[0])
        assert order() == oids
        consumer.evict(replicas[1])
        consumer.replicate("box:1")
        assert order() == [oids[0], oids[2], oids[3], oids[1]]

    def test_exported_oids_follow_master_registration(self, zero_world):
        site = zero_world.create_site("e")
        first, second, third = Box("a"), Box("b"), Box("c")
        # ``first`` is mastered before anything is exported, so it leads
        # even though its proxy-in is exported last.
        site.note_master(first)
        site.export(second)
        site.export(third)
        site.export(first)
        oids = [obi_id_of(box) for box in (first, second, third)]
        assert site.exported_oids() == oids
        # Re-exporting keeps the master record, and with it the place.
        site.retract_provider(oids[1])
        assert site.exported_oids() == [oids[0], oids[2]]
        site.export(second)
        assert site.exported_oids() == oids


class TestConcurrentChurn:
    """32 threads of register/bump/drop churn on one site."""

    THREADS = 32
    PER_THREAD = 25

    def test_no_lost_or_duplicated_masters(self, zero_world):
        site = zero_world.create_site("churn")
        boxes = {
            t: [Box((t, i)) for i in range(self.PER_THREAD)]
            for t in range(self.THREADS)
        }
        # Assign oids up front so the churn threads contend on the site
        # tables, not on id assignment.
        oids = {
            t: [obi_id_of(box) for box in boxes[t]] for t in range(self.THREADS)
        }
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def churn(t):
            try:
                barrier.wait(timeout=10)
                for i, box in enumerate(boxes[t]):
                    site.note_master(box)
                    site.bump_master_version(oids[t][i])
                    site.bump_master_version(oids[t][i])
                    if i % 3 == 2:
                        site.drop_master(oids[t][i])
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []

        dropped_per_thread = len([i for i in range(self.PER_THREAD) if i % 3 == 2])
        expected = self.THREADS * (self.PER_THREAD - dropped_per_thread)
        assert site.master_count() == expected
        listed = [oid for oid, _record in site.iter_masters()]
        assert len(listed) == len(set(listed)) == expected
        for t in range(self.THREADS):
            for i, box in enumerate(boxes[t]):
                if i % 3 == 2:
                    assert site.local_object_for(oids[t][i]) is None
                else:
                    assert site.version_of(box) == 3

    def test_concurrent_evict_loses_nothing(self, zsites):
        provider, consumer = zsites
        count = 64
        replicas = []
        for i in range(count):
            provider.export(Box(i), name=f"box:{i}")
            replicas.append(consumer.replicate(f"box:{i}"))
        assert consumer.replica_count() == count

        barrier = threading.Barrier(16)
        errors = []

        def evict(chunk):
            try:
                barrier.wait(timeout=10)
                for replica in chunk:
                    consumer.evict(replica)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=evict, args=(replicas[t::16],))
            for t in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert consumer.replica_count() == 0

    def test_stripe_metrics_shape(self, zero_world):
        site = zero_world.create_site("m")
        metrics = site.stripe_metrics()
        assert metrics == {"acquire_waits": 0, "max_depth": 0}
        site.note_master(Box("x"))
        assert site.stripe_metrics()["max_depth"] >= 1
