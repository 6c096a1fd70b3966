"""Clocks: wall-clock time and deterministic simulated time.

The paper's evaluation ran on a 2002 testbed (Pentium II/III, 10 Mb/s LAN,
JDK 1.x).  To reproduce the *shape* of its figures deterministically on any
machine, the benchmark harness charges modelled costs against a
:class:`SimClock` instead of measuring wall time.  The rest of the library is
clock-agnostic: every component takes a :class:`Clock` and only calls
:meth:`Clock.now` / :meth:`Clock.advance`.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod


def perf_ns() -> int:
    """Monotonic nanosecond counter for serializer micro-profiling.

    Telemetry wants real elapsed nanoseconds even inside simulated-time
    benchmark runs (a :class:`SimClock` measures modelled cost, not CPU
    cost), so this deliberately bypasses the Clock abstraction.  It is the
    only sanctioned ambient-time entry point besides the clocks below.
    """
    return time.perf_counter_ns()


class Clock(ABC):
    """Abstract time source measured in seconds."""

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""

    @abstractmethod
    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of elapsed time to the clock.

        For a wall clock this sleeps; for a simulated clock it simply moves
        the clock hand forward.  ``seconds`` must be non-negative.
        """

    def elapsed_since(self, start: float) -> float:
        """Convenience: seconds elapsed since a previous :meth:`now` value."""
        return self.now() - start


class WallClock(Clock):
    """Real time, backed by :func:`time.perf_counter`.

    ``advance`` sleeps, which makes code written against the cost model
    behave like a (slow) real system when wired to real transports.  Pass
    ``sleep=False`` to make ``advance`` a no-op — useful when real work
    already consumes the time being modelled.
    """

    def __init__(self, *, sleep: bool = False):
        self._origin = time.perf_counter()
        self._sleep = sleep

    def now(self) -> float:
        return time.perf_counter() - self._origin

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds!r} seconds")
        if self._sleep and seconds > 0:
            time.sleep(seconds)


class SimClock(Clock):
    """Deterministic simulated time.

    Thread-safe so that concurrent callers can share one simulated clock
    across sites; the loopback transport itself is single-threaded.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds!r} seconds")
        with self._lock:
            self._now += seconds

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock — handy between benchmark repetitions."""
        with self._lock:
            self._now = float(start)
