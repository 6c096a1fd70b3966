"""The master-side change journal.

Every change a site applies to one of its masters — a ``put``, a
``touch``, a mirrored feed frame — is journaled in its
:class:`ChangeLog` as a serial-numbered :class:`FeedEvent`.  The change
feed (:mod:`repro.feed`) streams those events to followers and uses the
serial as the catch-up cursor after a disconnection.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.errors import RetentionGapError

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
    """The site-wide journal of applied changes.

    Every recorded change appends a serial-numbered :class:`FeedEvent`
    (bounded retention), and every :meth:`record_many` batch notifies
    subscribed observers once — the substrate of the change feed.  The
    journal carries an *epoch* number that advances on failover promotion
    so frames from a deposed primary are recognizably stale.
    """

    def __init__(self, *, journal_retention: int = 512):
        self._journal: deque[FeedEvent] = deque(maxlen=journal_retention)
        #: Every oid ever journaled here (until dropped) — retention may
        #: have rolled its events out, but it has been announced.
        self._journaled: set[str] = set()
        self._next_serial = 1
        self._epoch = 0
        self._observers: list[Callable[[list[FeedEvent]], None]] = []
        self._lock = threading.Lock()

    def record(self, oid: str, version: int) -> int:
        """Record a local change; returns the serial it was journaled at."""
        return self.record_many([(oid, version)])[0]

    def record_many(self, changes: "Sequence[tuple[str, int]]") -> list[int]:
        """Record several local changes — one multi-entry put — as a batch.

        ``changes`` holds ``(oid, version)`` pairs.  The lock is taken
        once, the events get dense consecutive serials, and each observer
        is called **once with the whole list**, so a feed primary ships
        one put as one batch and a follower never observes half of it.
        Returns the serials, aligned with ``changes``.
        """
        if not changes:
            return []
        events: list[FeedEvent] = []
        with self._lock:
            for oid, version in changes:
                event = FeedEvent(self._next_serial, oid, version)
                self._next_serial += 1
                self._journal.append(event)
                self._journaled.add(oid)
                events.append(event)
            observers = list(self._observers)
        # Observers push on the network; never call them under the lock.
        for observer in observers:
            observer(events)
        return [event.serial for event in events]

    def record_mirror(self, serial: int, oid: str, version: int) -> None:
        """Journal an event *applied from a feed* at its original serial.

        Followers mirror the primary's journal so that, on promotion, the
        new primary's serial numbering continues where the group left
        off.  Does not notify observers — mirrored events are not local
        writes.
        """
        with self._lock:
            self._journal.append(FeedEvent(serial, oid, version))
            self._journaled.add(oid)
            if serial >= self._next_serial:
                self._next_serial = serial + 1

    def has_history(self, oid: str) -> bool:
        """Has ``oid`` ever been journaled here (and not dropped since)?"""
        with self._lock:
            return oid in self._journaled

    # -- serial / epoch surface -----------------------------------------
    @property
    def earliest_serial(self) -> int:
        """Oldest serial the journal still retains (0 when empty)."""
        with self._lock:
            return self._journal[0].serial if self._journal else 0

    @property
    def latest_serial(self) -> int:
        """Newest serial handed out (0 before the first record)."""
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

    def bump_epoch(self) -> int:
        """Advance the epoch (failover promotion); returns the new one."""
        with self._lock:
            self._epoch += 1
            return self._epoch

    def subscribe(self, observer: "Callable[[list[FeedEvent]], None]") -> None:
        """Call ``observer(events)`` after every local :meth:`record_many`
        batch (a single :meth:`record` is a one-event batch).

        Observers run outside the log's lock, on the recording thread.
        """
        with self._lock:
            self._observers.append(observer)

    def unsubscribe(self, observer: "Callable[[list[FeedEvent]], None]") -> None:
        with self._lock:
            if observer in self._observers:
                self._observers.remove(observer)

    def events_since(self, serial: int) -> list[FeedEvent]:
        """Journal events with serials strictly greater than ``serial``.

        Raises :class:`RetentionGapError` when the journal can no longer
        prove it covers ``(serial, latest]`` — the caller must bootstrap
        from a full snapshot instead.
        """
        with self._lock:
            latest = self._next_serial - 1
            if serial >= latest:
                return []
            earliest = self._journal[0].serial if self._journal else latest + 1
            if earliest > serial + 1:
                raise RetentionGapError(
                    f"journal retains serials [{earliest}, {latest}]; "
                    f"cannot catch up from {serial}",
                    requested=serial,
                    earliest=earliest,
                    latest=latest,
                )
            return [event for event in self._journal if event.serial > serial]

    def drop(self, oid: str) -> None:
        """Forget that ``oid`` was journaled (its master is gone)."""
        with self._lock:
            self._journaled.discard(oid)
