"""The master-side change journal.

Every change a site applies to one of its masters — a ``put``, a
``touch``, a mirrored feed frame — is journaled in its
:class:`ChangeLog` as a serial-numbered :class:`FeedEvent`.  The journal
is compacted: it holds each oid's latest event only.  The change feed
(:mod:`repro.feed`) streams events to followers and answers a join from
any cursor with the events past it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Sequence


@dataclass(frozen=True, slots=True)
class FeedEvent:
    """One serial-numbered entry in the site-wide change journal.

    Serials are dense and strictly increasing per site; the feed layer
    (:mod:`repro.feed`) streams these to followers and uses the serial as
    the catch-up cursor after a disconnection.
    """

    serial: int
    oid: str
    version: int


class ChangeLog:
    """The site-wide journal of applied changes, compacted per oid.

    Every recorded change gets a serial-numbered :class:`FeedEvent` that
    replaces its oid's previous one, and every :meth:`record_many` batch
    notifies subscribed observers once — the substrate of the change
    feed.  The journal carries an *epoch* number that advances on
    failover promotion so frames from a deposed primary are recognizably
    stale.
    """

    def __init__(self) -> None:
        #: oid → that oid's latest event: the whole journal, compacted.
        self._latest: dict[str, FeedEvent] = {}
        self._next_serial = 1
        self._epoch = 0
        self._observers: list[Callable[[list[FeedEvent]], None]] = []
        self._lock = threading.Lock()
        #: Held from a batch's serial assignment through its observer
        #: calls, so batches publish in serial order; taken before _lock.
        self._publish = threading.Lock()

    def record(self, oid: str, version: int) -> int:
        """Record a local change; returns the serial it was journaled at."""
        return self.record_many([(oid, version)])[0]

    def record_many(self, changes: "Sequence[tuple[str, int]]") -> list[int]:
        """Record several local changes — one multi-entry put — as a batch.

        ``changes`` holds ``(oid, version)`` pairs.  The events get dense
        consecutive serials, and each observer is called **once with the
        whole list**, so a feed primary ships one put as one batch and a
        follower never observes half of it.  Batches publish in serial
        order: a concurrent writer's batch waits until every observer
        call of this one has returned, so no follower receives serial
        *n + 1* while serial *n* is still undelivered.  Returns the
        serials, aligned with ``changes``.
        """
        if not changes:
            return []
        events: list[FeedEvent] = []
        with self._publish:
            with self._lock:
                for oid, version in changes:
                    event = FeedEvent(self._next_serial, oid, version)
                    self._next_serial += 1
                    self._latest[oid] = event
                    events.append(event)
                observers = list(self._observers)
            # Observers push on the network: outside the table lock, but
            # inside the publication lock that orders the batches.
            for observer in observers:
                observer(events)
        return [event.serial for event in events]

    def record_mirror(self, serial: int, oid: str, version: int) -> None:
        """Journal an event *applied from a feed* at its original serial.

        Followers mirror the primary's journal so that, on promotion, the
        new primary's serial numbering continues where the group left
        off.  Feed frames may arrive out of serial order (a live push can
        land before the join reply that precedes it), so an event only
        replaces an oid's entry when its serial is higher.  Does not
        notify observers — mirrored events are not local writes.
        """
        with self._lock:
            held = self._latest.get(oid)
            if held is None or serial > held.serial:
                self._latest[oid] = FeedEvent(serial, oid, version)
            if serial >= self._next_serial:
                self._next_serial = serial + 1

    def advance(self, serial: int) -> None:
        """Number the next local change past ``serial``: a follower's
        join covers serials up to the reply's even where no event of
        them survives (its master was dropped)."""
        with self._lock:
            if serial >= self._next_serial:
                self._next_serial = serial + 1

    def has_history(self, oid: str) -> bool:
        """Has ``oid`` ever been journaled here (and not dropped since)?"""
        with self._lock:
            return oid in self._latest

    # -- serial / epoch surface -----------------------------------------
    @property
    def latest_serial(self) -> int:
        """Newest serial handed out or mirrored (0 before the first)."""
        with self._lock:
            return self._next_serial - 1

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def adopt_epoch(self, epoch: int) -> int:
        """Raise the epoch to at least ``epoch``; returns the current one."""
        with self._lock:
            if epoch > self._epoch:
                self._epoch = epoch
            return self._epoch

    def subscribe(self, observer: "Callable[[list[FeedEvent]], None]") -> None:
        """Call ``observer(events)`` after every local :meth:`record_many`
        batch (a single :meth:`record` is a one-event batch).

        Observers run on the recording thread, one batch at a time and in
        serial order, outside the log's table lock; an observer must not
        record into the same log.
        """
        with self._lock:
            self._observers.append(observer)

    def unsubscribe(self, observer: "Callable[[list[FeedEvent]], None]") -> None:
        with self._lock:
            if observer in self._observers:
                self._observers.remove(observer)

    def events_since(self, serial: int) -> list[FeedEvent]:
        """The latest event of every oid changed after ``serial``, in
        serial order: exactly what a follower at that cursor lacks."""
        with self._lock:
            newer = [event for event in self._latest.values() if event.serial > serial]
        return sorted(newer, key=attrgetter("serial"))

    def drop(self, oid: str) -> None:
        """Forget ``oid``'s journal entry (its master is gone)."""
        with self._lock:
            self._latest.pop(oid, None)
