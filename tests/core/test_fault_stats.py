"""FaultPathStats and PoolStats counter semantics under concurrency.

The fault path exists because resolution is concurrent, so its own
bookkeeping must be exact under the same concurrency: N threads adding
must never lose a count, and snapshot/reset must be atomic with respect
to adders (no increment may vanish between the snapshot and the zeroing).
"""

from __future__ import annotations

import threading

from repro.core.telemetry import FaultPathStats
from repro.simnet.tcp import PoolStats

THREADS = 8
PER_THREAD = 300


def _hammer(worker, threads=THREADS):
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait()
        worker()

    pool = [threading.Thread(target=run) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestFaultPathStats:
    def test_add_defaults_to_zero(self):
        stats = FaultPathStats()
        stats.add()
        assert stats.snapshot() == {
            "demands_batched": 0,
            "prefetch_hits": 0,
            "coalesced_faults": 0,
        }

    def test_add_bumps_selected_counters(self):
        stats = FaultPathStats()
        stats.add(demands_batched=1, prefetch_hits=3)
        stats.add(coalesced_faults=2)
        assert stats.demands_batched == 1
        assert stats.prefetch_hits == 3
        assert stats.coalesced_faults == 2

    def test_concurrent_adds_are_exact(self):
        stats = FaultPathStats()

        def worker():
            for _ in range(PER_THREAD):
                stats.add(demands_batched=1, prefetch_hits=2, coalesced_faults=1)

        _hammer(worker)
        assert stats.snapshot() == {
            "demands_batched": THREADS * PER_THREAD,
            "prefetch_hits": 2 * THREADS * PER_THREAD,
            "coalesced_faults": THREADS * PER_THREAD,
        }

    def test_reset_returns_prior_values_and_zeroes(self):
        stats = FaultPathStats()
        stats.add(demands_batched=5, prefetch_hits=7)
        before = stats.reset()
        assert before == {
            "demands_batched": 5,
            "prefetch_hits": 7,
            "coalesced_faults": 0,
        }
        assert stats.snapshot() == {
            "demands_batched": 0,
            "prefetch_hits": 0,
            "coalesced_faults": 0,
        }

    def test_no_increment_lost_across_concurrent_resets(self):
        """adders + resetters in parallel: every add lands either in a
        reset's returned snapshot or in the final residue — never both,
        never neither."""
        stats = FaultPathStats()
        harvested = []
        harvested_lock = threading.Lock()

        def adder():
            for _ in range(PER_THREAD):
                stats.add(demands_batched=1)

        def resetter():
            for _ in range(PER_THREAD // 3):
                before = stats.reset()
                with harvested_lock:
                    harvested.append(before["demands_batched"])

        barrier = threading.Barrier(THREADS + 2)
        threads = [
            *(threading.Thread(target=lambda: (barrier.wait(), adder())) for _ in range(THREADS)),
            *(threading.Thread(target=lambda: (barrier.wait(), resetter())) for _ in range(2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = sum(harvested) + stats.snapshot()["demands_batched"]
        assert total == THREADS * PER_THREAD

    def test_snapshot_is_mutually_consistent(self):
        """add() bumps two counters atomically; a snapshot must never see
        one moved without the other."""
        stats = FaultPathStats()
        stop = threading.Event()
        torn = []

        def adder():
            while not stop.is_set():
                stats.add(demands_batched=1, prefetch_hits=1)

        def reader():
            for _ in range(2000):
                snap = stats.snapshot()
                if snap["demands_batched"] != snap["prefetch_hits"]:
                    torn.append(snap)
            stop.set()

        threads = [threading.Thread(target=adder) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert torn == []


class TestPoolStats:
    def test_concurrent_records_are_exact(self):
        stats = PoolStats()

        def worker():
            for _ in range(PER_THREAD):
                stats.record_created("a", "b")
                stats.record_reused("a", "b")
                stats.record_reused("b", "a")

        _hammer(worker)
        assert stats.total_created == THREADS * PER_THREAD
        assert stats.total_reused == 2 * THREADS * PER_THREAD
        assert stats.reused_from("a") == THREADS * PER_THREAD
        assert stats.reused_from("b") == THREADS * PER_THREAD

    def test_pair_view_matches_records(self):
        stats = PoolStats()
        stats.record_created("x", "y")
        stats.record_reused("x", "y")
        pair = stats.pair("x", "y")
        assert (pair.created, pair.reused) == (1, 1)
