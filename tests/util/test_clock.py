"""Tests for repro.util.clock."""

import time

import pytest

from repro.util.clock import SimClock, WallClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(start=42.5).now() == 42.5

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now() == pytest.approx(1.75)

    def test_advance_zero_is_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        assert clock.now() == 0.0

    def test_reset(self):
        clock = SimClock()
        clock.advance(10)
        clock.reset()
        assert clock.now() == 0.0
        clock.reset(5.0)
        assert clock.now() == 5.0

    def test_elapsed_since(self):
        clock = SimClock()
        start = clock.now()
        clock.advance(3.0)
        assert clock.elapsed_since(start) == pytest.approx(3.0)

    def test_thread_safety_smoke(self):
        import threading

        clock = SimClock()

        def spin():
            for _ in range(1000):
                clock.advance(0.001)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert clock.now() == pytest.approx(4.0)


class TestWallClock:
    def test_monotonic(self):
        clock = WallClock()
        first = clock.now()
        second = clock.now()
        assert second >= first

    def test_advance_without_sleep_is_noop(self):
        clock = WallClock(sleep=False)
        before = time.perf_counter()  # obilint: disable=OBI108 -- checks WallClock against the ambient counter it wraps
        clock.advance(0.5)
        assert time.perf_counter() - before < 0.1  # obilint: disable=OBI108 -- checks WallClock against the ambient counter it wraps

    def test_advance_with_sleep_sleeps(self):
        clock = WallClock(sleep=True)
        before = time.perf_counter()  # obilint: disable=OBI108 -- checks WallClock against the ambient counter it wraps
        clock.advance(0.02)
        assert time.perf_counter() - before >= 0.015  # obilint: disable=OBI108 -- checks WallClock against the ambient counter it wraps

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            WallClock().advance(-1)
