"""Sync versions, dirty-field tracking, and the master change log.

Three pieces of bookkeeping make delta synchronization possible:

* **Write notes** — obicomp instruments every compiled class's
  ``__setattr__`` to call :func:`note_write`.  For objects nobody
  enrolled the note is a single dict probe; for enrolled replicas it
  records the attribute name in a dirty set.  This is the "captured
  cheaply at mutation time" half of the design.
* **:class:`DirtyTracker`** (consumer side, one per site) — enrolls
  replicas, snapshots their dirty state at put time, and re-baselines
  after a successful sync.  Mutations the instrumented ``__setattr__``
  cannot see fall back conservatively: in-place container mutation is
  caught by per-field fingerprints taken at the last sync point, and
  ``__dict__``-level surgery (new/deleted keys that never went through
  ``__setattr__``) downgrades the whole object to the full-state path.
* **:class:`ChangeLog`** (master side, one per site) — remembers which
  fields each applied version changed, so a ``get``-refresh can ship
  only the fields a consumer's ``base_version`` is missing.  Whole-state
  events (full put, ``touch`` without a field list) and retention gaps
  poison the range, forcing the full-state refresh (``NEED_FULL``).

Every enrolled object also carries a monotonically increasing *sync
version* — bumped on each successful re-baseline — plus a mutation
counter that lets an in-flight put detect concurrent writes and leave
them dirty for the next round instead of losing them.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.serial.delta import IMMUTABLE_SCALARS
from repro.util.errors import RetentionGapError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Sequence

    from repro.serial.delta import Fingerprinter

#: Reserved attributes that never count as application state changes.
_META_FIELDS = frozenset({"_obi_id"})


class _Track:
    """Mutable dirty-state record for one enrolled object."""

    __slots__ = ("dirty", "whole", "mutations", "sync_version", "known_fields", "container_fps")

    def __init__(self) -> None:
        self.dirty: set[str] = set()
        self.whole = False
        self.mutations = 0
        self.sync_version = 0
        self.known_fields: frozenset[str] = frozenset()
        self.container_fps: dict[str, str] = {}


#: id(obj) → track, shared by every site in the process (an object lives
#: in exactly one site's tables, so records never collide).  Guarded by
#: the GIL for the single-probe fast path; structural changes go through
#: ``_TABLE_LOCK``.
_RECORDS: dict[int, _Track] = {}
_TABLE_LOCK = threading.Lock()


def note_write(obj: object, name: str) -> None:
    """Record an attribute write on ``obj`` (called by instrumented
    ``__setattr__`` on *every* compiled-class write — must stay cheap)."""
    track = _RECORDS.get(id(obj))
    if track is None or name in _META_FIELDS:
        return
    track.dirty.add(name)
    track.mutations += 1


def is_tracked(obj: object) -> bool:
    return id(obj) in _RECORDS


@dataclass(frozen=True, slots=True)
class DirtySnapshot:
    """What a put observed at build time; pass back to :meth:`commit`."""

    fields: frozenset[str]
    whole: bool
    mutations: int
    sync_version: int

    @property
    def clean(self) -> bool:
        return not self.whole and not self.fields


class DirtyTracker:
    """Per-site enrollment and snapshot/commit protocol."""

    def __init__(self, fingerprinter: "Fingerprinter"):
        self._fingerprinter = fingerprinter

    # ------------------------------------------------------------------
    # enrollment
    # ------------------------------------------------------------------
    def enroll(self, obj: object) -> None:
        """Start (or restart) tracking ``obj`` from a just-synced baseline."""
        key = id(obj)
        with _TABLE_LOCK:
            track = _RECORDS.get(key)
            if track is None:
                track = _Track()
                _RECORDS[key] = track
                # Drop the record when the object dies; the identity guard
                # protects a reused id that was re-enrolled by a new object
                # before this finalizer ran.
                weakref.finalize(obj, _discard, key, track)
            self._rebaseline_locked(obj, track)

    def forget(self, obj: object) -> None:
        key = id(obj)
        with _TABLE_LOCK:
            _RECORDS.pop(key, None)

    def is_enrolled(self, obj: object) -> bool:
        return id(obj) in _RECORDS

    def sync_version(self, obj: object) -> int | None:
        track = _RECORDS.get(id(obj))
        return track.sync_version if track is not None else None

    def mark_whole(self, obj: object) -> None:
        """Force the full-state path for the next sync of ``obj``."""
        track = _RECORDS.get(id(obj))
        if track is not None:
            track.whole = True
            track.mutations += 1

    # ------------------------------------------------------------------
    # the put-time protocol
    # ------------------------------------------------------------------
    def capture(self, obj: object) -> DirtySnapshot | None:
        """Snapshot ``obj``'s dirty state; ``None`` if not enrolled.

        Combines the three change sources: attribute writes seen by
        ``__setattr__``; container fields whose fingerprint drifted from
        the last baseline; and ``__dict__``-level surgery, which returns
        a whole-object snapshot (delta cannot express key deletion).
        """
        track = _RECORDS.get(id(obj))
        if track is None:
            return None
        state = vars(obj)
        current = frozenset(k for k in state if k not in _META_FIELDS)
        # Keys that appeared without a __setattr__ note, or vanished (no
        # __delattr__ instrumentation): __dict__-level surgery the delta
        # format cannot express — downgrade to whole-object.
        unexplained_added = current - track.known_fields - track.dirty
        removed = track.known_fields - current
        if track.whole or unexplained_added or removed:
            return DirtySnapshot(
                fields=frozenset(),
                whole=True,
                mutations=track.mutations,
                sync_version=track.sync_version,
            )
        fields = set(track.dirty)
        for name, baseline in track.container_fps.items():
            if name in fields or name not in state:
                continue
            if self._fingerprinter.of_value(state[name]) != baseline:
                fields.add(name)
        return DirtySnapshot(
            fields=frozenset(fields),
            whole=False,
            mutations=track.mutations,
            sync_version=track.sync_version,
        )

    def commit(self, obj: object, snapshot: DirtySnapshot) -> None:
        """Mark the snapshot's changes as synced.

        If the object mutated after :meth:`capture`, the dirty state is
        left in place (over-approximation: the next put re-ships those
        fields) — losing a concurrent write would corrupt the master.
        """
        track = _RECORDS.get(id(obj))
        if track is None:
            return
        with _TABLE_LOCK:
            if track.mutations != snapshot.mutations:
                return
            self._rebaseline_locked(obj, track)

    # ------------------------------------------------------------------
    def _rebaseline_locked(self, obj: object, track: _Track) -> None:
        state = vars(obj)
        track.dirty.clear()
        track.whole = False
        track.sync_version += 1
        track.known_fields = frozenset(k for k in state if k not in _META_FIELDS)
        fps: dict[str, str] = {}
        for name, value in state.items():
            if name in _META_FIELDS or isinstance(value, IMMUTABLE_SCALARS):
                continue
            # Anything mutable-in-place (containers, registered plain
            # objects) gets a baseline fingerprint; direct OBIWAN node
            # references hash as identity, so in-place mutation of the
            # *referent* stays the referent's own business.
            fps[name] = self._fingerprinter.of_value(value)
        track.container_fps = fps


def _discard(key: int, track: _Track) -> None:
    with _TABLE_LOCK:
        if _RECORDS.get(key) is track:
            del _RECORDS[key]


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FeedEvent:
    """One serial-numbered entry in the site-wide change journal.

    ``fields=None`` marks a whole-state change.  Serials are dense and
    strictly increasing per site; the feed layer (:mod:`repro.feed`)
    streams these to followers and uses the serial as the catch-up
    cursor after a disconnection.
    """

    serial: int
    oid: str
    version: int
    fields: frozenset[str] | None


class ChangeLog:
    """Per-master history of which fields each version changed.

    ``fields=None`` marks a whole-state change (full put, blanket
    ``touch``).  Retention is bounded per object; asking for a range the
    log no longer covers returns ``None``, which the protocol maps to
    ``NEED_FULL``.

    Beyond the per-oid field log, every recorded change also appends a
    serial-numbered :class:`FeedEvent` to a site-wide *journal* (its own,
    larger retention window), and every :meth:`record_many` batch notifies
    subscribed observers once — the substrate of the change feed.  The
    journal carries an *epoch* number that advances on failover promotion
    so frames from a deposed primary are recognizably stale.
    """

    def __init__(self, *, retention: int = 64, journal_retention: int = 512):
        self._retention = retention
        self._log: dict[str, deque[tuple[int, frozenset[str] | None]]] = {}
        self._journal: deque[FeedEvent] = deque(maxlen=journal_retention)
        self._next_serial = 1
        self._epoch = 0
        self._observers: list[Callable[[list[FeedEvent]], None]] = []
        self._lock = threading.Lock()

    def record(self, oid: str, version: int, fields: frozenset[str] | None) -> int:
        """Record a local change; returns the serial it was journaled at."""
        return self.record_many([(oid, version, fields)])[0]

    def record_many(
        self, changes: "Sequence[tuple[str, int, frozenset[str] | None]]"
    ) -> list[int]:
        """Record several local changes — one multi-entry put — as a batch.

        ``changes`` holds ``(oid, version, fields)`` triples.  The lock is
        taken once, the events get dense consecutive serials, and each
        observer is called **once with the whole list**, so a feed
        primary ships one put as one batch and a follower never observes
        half of it.  Returns the serials, aligned with ``changes``.
        """
        if not changes:
            return []
        events: list[FeedEvent] = []
        with self._lock:
            for oid, version, fields in changes:
                self._append_field_entry_locked(oid, version, fields)
                event = FeedEvent(self._next_serial, oid, version, fields)
                self._next_serial += 1
                self._journal.append(event)
                events.append(event)
            observers = list(self._observers)
        # Observers push on the network; never call them under the lock.
        for observer in observers:
            observer(events)
        return [event.serial for event in events]

    def _append_field_entry_locked(
        self, oid: str, version: int, fields: frozenset[str] | None
    ) -> None:
        entries = self._log.get(oid)
        if entries is None:
            entries = deque(maxlen=self._retention)
            self._log[oid] = entries
        entries.append((version, fields))

    def record_mirror(self, serial: int, oid: str, version: int, fields: frozenset[str] | None) -> None:
        """Journal an event *applied from a feed* at its original serial.

        Followers mirror the primary's journal so that, on promotion, the
        new primary's serial numbering continues where the group left off
        and its own field log can serve delta refreshes.  Does not notify
        observers — mirrored events are not local writes.
        """
        with self._lock:
            self._append_field_entry_locked(oid, version, fields)
            self._journal.append(FeedEvent(serial, oid, version, fields))
            if serial >= self._next_serial:
                self._next_serial = serial + 1

    def has_history(self, oid: str) -> bool:
        """Does the field log hold any entry for ``oid``?"""
        with self._lock:
            return oid in self._log

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

    # -- per-oid field ranges -------------------------------------------
    def fields_since(self, oid: str, base_version: int, current_version: int) -> frozenset[str] | None:
        """Union of fields changed in ``(base_version, current_version]``.

        ``None`` when the range includes a whole-state change, or when
        the log cannot prove it covers every version in the range.
        """
        try:
            return self.changed_fields(oid, base_version, current_version)
        except RetentionGapError:
            return None

    def changed_fields(self, oid: str, base_version: int, current_version: int) -> frozenset[str] | None:
        """Strict variant of :meth:`fields_since`.

        ``None`` still means "whole-state change in range" (a legitimate
        downgrade), but a coverage gap raises :class:`RetentionGapError`
        instead of hiding inside the same ``None``.
        """
        if current_version <= base_version:
            return frozenset()
        with self._lock:
            entries = list(self._log.get(oid, ()))
        covered: set[int] = set()
        changed: set[str] = set()
        for version, fields in entries:
            if base_version < version <= current_version:
                if fields is None:
                    return None
                covered.add(version)
                changed.update(fields)
        missing = set(range(base_version + 1, current_version + 1)) - covered
        if missing:
            retained = sorted(version for version, _ in entries)
            raise RetentionGapError(
                f"field log for {oid!r} does not cover versions {sorted(missing)}",
                requested=base_version,
                earliest=retained[0] if retained else 0,
                latest=retained[-1] if retained else 0,
            )
        return frozenset(changed)

    def drop(self, oid: str) -> None:
        with self._lock:
            self._log.pop(oid, None)
