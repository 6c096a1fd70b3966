"""The span model and the per-site span collector.

A :class:`Span` is one timed protocol step: a ``replicate``, a ``fault``,
one ``rmi.invoke`` round trip, the provider-side ``build_package`` it
triggered.  Spans form trees through ``parent_id`` and whole causal
cascades through ``trace_id`` — both travel across the wire in RMI
request metadata, so a consumer-side fault and the provider-side package
build it caused end up in one tree even though they were recorded by
different sites (on different threads, or different processes on the TCP
transport).

A :class:`SpanCollector` is the per-site sink.  Faulting threads and
dispatcher threads record concurrently, so the collector is lock-safe
and — like ``FaultPathStats`` — exact: no record may be lost or double
counted, and ``stats()`` is mutually consistent.  Capacity is bounded;
overflow drops the *newest* span (the cascade's root and early structure
matter more than its tail) and counts the drop.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

#: Spans kept per collector before overflow counting starts.
DEFAULT_CAPACITY = 100_000

#: Process-wide monotonic sequence used to order spans whose clock
#: timestamps tie (the simulated clock only moves when costs are
#: charged, so sibling spans often share a start time).
_seq = itertools.count(1)


def next_seq() -> int:
    """The next process-wide span sequence number (GIL-atomic)."""
    return next(_seq)


@dataclass(slots=True)
class Span:
    """One timed, attributed step of a causal cascade."""

    trace_id: str
    span_id: str
    parent_id: str | None
    #: Protocol step class: ``replicate``, ``fault``, ``demand``,
    #: ``splice``, ``rmi.invoke``, ``rmi.serve``, ``build_package``, …
    kind: str
    #: Human label (method name, target id); defaults to ``kind``.
    name: str
    #: Site that recorded the span.
    site: str
    #: Clock reading at entry, seconds (site clock: simulated time on the
    #: loopback transport, wall time on TCP).
    start: float
    duration: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    #: Process-wide creation sequence — the tiebreaker for equal starts.
    seq: int = 0

    @property
    def end(self) -> float:
        return self.start + self.duration

    def jsonable(self) -> dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "site": self.site,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class SpanCollector:
    """Lock-safe bounded sink for one site's finished spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"collector capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._recorded = 0
        self._dropped = 0
        self._high_water = 0

    def record(self, span: Span) -> bool:
        """Store a finished span; returns ``False`` when it was dropped."""
        with self._lock:
            if len(self._spans) >= self.capacity:
                self._dropped += 1
                return False
            self._spans.append(span)
            self._recorded += 1
            if len(self._spans) > self._high_water:
                self._high_water = len(self._spans)
            return True

    def spans(self) -> list[Span]:
        """A snapshot of the stored spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        """Remove and return the stored spans (drop/recorded totals and
        the high-water mark survive — they describe the whole run)."""
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    def stats(self) -> dict[str, int]:
        """Mutually-consistent counters: recorded, dropped, held, high water."""
        with self._lock:
            return {
                "recorded": self._recorded,
                "dropped": self._dropped,
                "held": len(self._spans),
                "high_water": self._high_water,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SpanCollector(held={stats['held']}/{self.capacity}, "
            f"recorded={stats['recorded']}, dropped={stats['dropped']})"
        )
