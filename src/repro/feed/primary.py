"""The primary role: journal observer, subscriber table, push fan-out.

A :class:`FeedPrimary` attaches to a site's
:class:`~repro.core.versions.ChangeLog` as an observer: every local
change (``put``, ``touch``) is already journaled with a
dense serial, and the observer turns each journal batch — all the events
of one put — into one :class:`~repro.core.packages.FeedBatch` (a
:class:`~repro.core.packages.FeedFrame` per event) pushed to every live
subscriber.

Delivery discipline:

* Every push is sent with ``invoke_async`` and its ack collected after
  all pushes are started.  On both transports a push completes before
  ``invoke_async`` returns, so followers are pushed one after the other;
  a failed push stalls its follower without delaying the next.
* The subscriber list is copied under the role's lock and every invoke
  happens outside it (obiflow OBI202 checks this).

A push failure — the follower is unreachable, refuses the batch, or
exports no feed service at all — marks the subscriber stalled instead of
failing the writer's put; a reconnecting follower heals itself by
re-subscribing.  An ack carrying a *newer* epoch means the group failed
over while we were partitioned away — the deposed primary demotes itself
on the spot rather than keep writing history nobody will accept.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.meta import interface_of, obi_id_of
from repro.core.packages import (
    FeedAck,
    FeedBatch,
    FeedFrame,
    FeedSnapshotReply,
    FeedSnapshotRequest,
    FeedSubscribeReply,
    FeedSubscribeRequest,
    PromoteReply,
    PromoteRequest,
)
from repro.core.replication import PackagingSwizzler
from repro.feed.service import ensure_feed_service, feed_ref
from repro.serial.encoder import Encoder
from repro.util.errors import (
    FeedError,
    ProtocolError,
    RemoteError,
    RetentionGapError,
    StaleEpochError,
    TransportError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site
    from repro.core.versions import FeedEvent
    from repro.rmi.refs import RemoteRef

#: How long a push waits for one follower's ack before stalling it.
PUSH_TIMEOUT_S = 30.0

#: What a push to one follower may raise; each stalls that follower.
#: ``ProtocolError`` is a site that exports no feed service.
_PUSH_FAILURES = (TransportError, RemoteError, FeedError, ProtocolError)


class OwnStateEncoder:
    """Encodes one master at a time as its *instance frame*.

    The frame carries the object's own state by value; every OBIWAN
    reference in that state travels as a proxy-out descriptor naming a
    provider.  The follower decodes an instance of the same class and
    lifts its state.  One swizzler/encoder pair serves a whole batch:
    each frame is independent.

    What is encoded is a shallow copy, so a reference the object holds to
    *itself* is, to the swizzler, a reference to some other object and
    leaves as a proxy-out like the rest: the follower re-links it to its
    own mirror, not to the temporary it decoded.
    """

    def __init__(self, site: "Site"):
        self.swizzler = PackagingSwizzler(site, member_ids=set())
        self._encoder = Encoder(site.registry, self.swizzler, stats=site.serial_stats)

    def encode(self, obj: object) -> bytes:
        copy = type(obj).__new__(type(obj))
        vars(copy).update(vars(obj))
        self.swizzler.member_ids = {id(copy)}
        return self._encoder.encode(copy)


class _Subscriber:
    """One follower's delivery state (guarded by the primary's lock)."""

    __slots__ = ("site_id", "ref", "stalled", "acked_serial")

    def __init__(self, site_id: str, ref: "RemoteRef"):
        self.site_id = site_id
        self.ref = ref
        self.stalled = False
        self.acked_serial = 0


class FeedPrimary:
    """Attach to ``site`` as the group's write master."""

    def __init__(self, site: "Site", *, epoch: int | None = None):
        self.site = site
        target = epoch if epoch is not None else max(1, site.change_log.epoch)
        self.epoch = site.change_log.adopt_epoch(target)
        self._lock = threading.Lock()
        self._subscribers: dict[str, _Subscriber] = {}
        self._active = True
        ensure_feed_service(site)
        site.feed_role = self
        self._seed_journal()
        site.change_log.subscribe(self._on_events)
        site.feed_stats.set_gauges(role="primary", epoch=self.epoch, lag_serials=0)

    def _seed_journal(self) -> None:
        """Journal every master the journal does not cover yet.

        Exported-but-never-written masters have state but no journal
        entry, so a follower's catch-up would silently miss them.  Runs
        at role creation and again before serving each subscription
        (an export can land between the two); while the observer is
        attached, each seeded record also pushes, healing existing
        followers.  Promoted followers' mirrors already carry mirrored
        history, so promotion does not re-journal the world.
        """
        site = self.site
        site.change_log.record_many(
            [
                (oid, site.master_version(record.obj))
                for oid, record in site.iter_masters()
                if not site.change_log.has_history(oid)
            ]
        )

    # ------------------------------------------------------------------
    # journal observer → push
    # ------------------------------------------------------------------
    def _on_events(self, events: "list[FeedEvent]") -> None:
        """Push one journal batch — one put's events — as one ``FeedBatch``,
        so a follower never observes half of a multi-entry put."""
        if not self._active:
            return
        site = self.site
        with site.tracer.span(
            "feed.push", events=len(events), serial=events[-1].serial
        ):
            encoder = self._frame_encoder()
            frames = []
            for event in events:
                master = site.master_object_for(event.oid)
                if master is not None:  # else: dropped between record and push
                    frames.append(
                        self._frame_for(master, serial=event.serial, encoder=encoder)
                    )
            if not frames:
                return
            batch = FeedBatch(
                epoch=self.epoch,
                primary_id=site.name,
                latest_serial=site.change_log.latest_serial,
                frames=frames,
            )
            self._deliver(batch)

    def _frame_encoder(self) -> OwnStateEncoder:
        """An encoder to share across the frames of one batch (each
        ``encode()`` call is an independent frame)."""
        return OwnStateEncoder(self.site)

    def _frame_for(
        self, master: object, *, serial: int, encoder: OwnStateEncoder
    ) -> FeedFrame:
        site = self.site
        oid = obi_id_of(master)
        provider, _created = site.ensure_provider_for(master)
        payload = encoder.encode(master)
        site.charge_serialization(len(payload))
        return FeedFrame(
            serial=serial,
            epoch=self.epoch,
            oid=oid,
            interface=interface_of(master).name,
            version=site.master_version(master),
            payload=payload,
            provider=provider,
        )

    def _deliver(self, batch: FeedBatch) -> None:
        site = self.site
        with self._lock:
            subscribers = [s for s in self._subscribers.values() if not s.stalled]
        in_flight = [
            (sub, site.endpoint.invoke_async(sub.ref, "feed_events", (batch,)))
            for sub in subscribers
        ]
        for sub, future in in_flight:
            try:
                ack = future.result(PUSH_TIMEOUT_S)
            except _PUSH_FAILURES as exc:
                self._stall(sub, reason=str(exc))
                continue
            self._note_ack(sub, ack)
        site.feed_stats.add(frames_pushed=len(batch.frames) * len(subscribers))

    def _stall(self, sub: _Subscriber, *, reason: str) -> None:
        # A stalled follower is skipped until it re-subscribes; the
        # failure reason is deliberately not retained beyond stats —
        # reconnect catch-up is the recovery path, not retry-from-here.
        with self._lock:
            sub.stalled = True
        self.site.feed_stats.add(push_failures=1)

    def _note_ack(self, sub: _Subscriber, ack: FeedAck) -> None:
        if not ack.accepted and ack.epoch > self.epoch:
            self._demote(ack.epoch)
            return
        if ack.applied_serial > sub.acked_serial:
            sub.acked_serial = ack.applied_serial

    def _demote(self, new_epoch: int) -> None:
        """The group moved on without us: stop pushing, stop accepting."""
        self._active = False
        self.site.change_log.unsubscribe(self._on_events)
        self.site.change_log.adopt_epoch(new_epoch)
        self.site.feed_stats.set_gauges(role="demoted", epoch=new_epoch)

    # ------------------------------------------------------------------
    # verb handlers (dispatched by FeedService)
    # ------------------------------------------------------------------
    def handle_subscribe(self, request: FeedSubscribeRequest) -> FeedSubscribeReply:
        site = self.site
        if not self._active:
            raise StaleEpochError(
                f"site {site.name!r} was deposed as primary",
                current_epoch=site.change_log.epoch,
            )
        with site.tracer.span(
            "feed.subscribe", follower=request.site_id, since=request.last_serial
        ):
            # Register before reading the journal: an event recorded
            # while we build the catch-up is pushed AND replayed, and the
            # follower's version-monotonic apply dedups the overlap.
            sub = _Subscriber(request.site_id, feed_ref(request.site_id))
            with self._lock:
                self._subscribers[request.site_id] = sub
            self._seed_journal()
            log = site.change_log
            try:
                events = log.events_since(request.last_serial)
            except RetentionGapError:
                return FeedSubscribeReply(
                    epoch=self.epoch,
                    latest_serial=log.latest_serial,
                    snapshot_needed=True,
                    providers=self._provider_map(),
                    names=self._name_map(),
                )
            frames = self._catch_up_frames(events)
            site.feed_stats.add(catch_up_events=len(events))
            return FeedSubscribeReply(
                epoch=self.epoch,
                latest_serial=log.latest_serial,
                snapshot_needed=False,
                frames=frames,
                providers=self._provider_map(),
                names=self._name_map(),
            )

    def _catch_up_frames(self, events: "list[FeedEvent]") -> list[FeedFrame]:
        """One frame per distinct oid, at its highest event serial.

        Catch-up re-encodes *current* state (the journal stores oids and
        versions, not payloads), so replaying collapsed history is safe:
        the frame's version is the current version and the follower's
        monotonic guard handles any overlap with live pushes.
        """
        newest: dict[str, int] = {}
        for event in events:
            newest[event.oid] = max(event.serial, newest.get(event.oid, 0))
        encoder = self._frame_encoder()
        frames = []
        for oid, serial in sorted(newest.items(), key=lambda pair: pair[1]):
            master = self.site.master_object_for(oid)
            if master is None:
                continue  # dropped since; nothing to converge to
            frames.append(self._frame_for(master, serial=serial, encoder=encoder))
        return frames

    def handle_events(self, batch: FeedBatch) -> FeedAck:
        site = self.site
        log = site.change_log
        if batch.epoch < max(self.epoch, log.epoch):
            # A deposed primary kept pushing across the partition.
            site.feed_stats.add(stale_epoch_rejects=len(batch.frames))
            return FeedAck(
                epoch=max(self.epoch, log.epoch),
                applied_serial=log.latest_serial,
                accepted=False,
            )
        raise FeedError(
            f"site {site.name!r} is primary at epoch {self.epoch}; "
            f"it cannot apply feed events from {batch.primary_id!r} "
            f"at epoch {batch.epoch} (split-brain configuration?)"
        )

    def handle_snapshot(self, request: FeedSnapshotRequest) -> FeedSnapshotReply:
        """Full-state bootstrap, concurrent with ongoing puts.

        The serial is captured **first**: every event recorded after it
        reaches the follower through the feed (it subscribed before
        asking for the snapshot), and any newer state encoded below is
        deduped by the follower's version-monotonic apply.  Nothing
        pauses the write path.
        """
        site = self.site
        if not self._active:
            raise StaleEpochError(
                f"site {site.name!r} was deposed as primary",
                current_epoch=site.change_log.epoch,
            )
        with site.tracer.span("feed.snapshot", follower=request.site_id):
            serial = site.change_log.latest_serial
            encoder = self._frame_encoder()
            frames = [
                self._frame_for(record.obj, serial=serial, encoder=encoder)
                for _oid, record in site.iter_masters()
            ]
            site.feed_stats.add(snapshots_served=1)
            return FeedSnapshotReply(
                epoch=self.epoch,
                serial=serial,
                frames=frames,
                providers=self._provider_map(),
                names=self._name_map(),
            )

    def handle_promote(self, request: PromoteRequest) -> PromoteReply:
        raise FeedError(
            f"site {self.site.name!r} is already primary at epoch {self.epoch}"
        )

    # ------------------------------------------------------------------
    # maps shipped to followers
    # ------------------------------------------------------------------
    def _provider_map(self) -> "dict[str, RemoteRef]":
        providers = {}
        for oid, record in self.site.iter_masters():
            ref, _created = self.site.ensure_provider_for(record.obj)
            providers[oid] = ref
        return providers

    def _name_map(self) -> dict[str, str]:
        """Name-server bindings that resolve to this site's exports."""
        site = self.site
        names = {}
        for name in site.naming.list_names():
            ref = site.naming.lookup(name)
            if ref.site_id != site.name:
                continue
            oid = site.oid_for_export(ref.object_id)
            if oid is not None:
                names[name] = oid
        return names

    # ------------------------------------------------------------------
    # operator surface
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def subscriber_serials(self) -> dict[str, int]:
        """Last acked serial per live subscriber (telemetry/tests)."""
        with self._lock:
            return {
                s.site_id: s.acked_serial
                for s in self._subscribers.values()
                if not s.stalled
            }

    def detach(self) -> None:
        """Stop observing the journal (simulates primary death in tests)."""
        self._active = False
        self.site.change_log.unsubscribe(self._on_events)
        self.site.feed_stats.set_gauges(role="none")

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._subscribers)
        return f"FeedPrimary({self.site.name!r}, epoch={self.epoch}, subscribers={count})"
