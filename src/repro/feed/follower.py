"""The follower role: subscribe, tail, write through, promote.

A :class:`FeedFollower` registers with a primary's feed service and
mirrors every change into its own tables — as proxy-in-less master
records, so on promotion the mirrors *are* the new masters.  The
follower's cursor is its last applied journal serial:

* **Join and reconnect** are one ``feed_subscribe`` round trip from the
  cursor: the primary's journal holds each object's latest event, so
  the reply is one frame per object changed since the cursor, whatever
  the cursor's age (0 for a brand-new follower).  The reply is applied
  under the same epoch check and version-monotonic guard live pushes
  use, so a follower joins a group under write load without anyone
  quiescing.
* **Write-through**: applications write at the follower by proxying the
  put to the primary's per-object proxy-in — exported under the object's
  oid, so ``(primary, oid, interface)`` names it — then waiting until the
  write's own feed echo lands locally — a confirmed ``put_through`` is
  therefore durable at this follower, which is what makes
  highest-serial-wins failover lose zero acknowledged writes.
* **Promotion** bumps the epoch, re-attaches the site as a
  :class:`~repro.feed.primary.FeedPrimary`, exports proxy-ins for every
  mirror and rebinds to them every name the name server binds to one of
  the old primary's mirrored objects.

Every batch is epoch-guarded before any frame is applied (obiflow
OBI210): frames from a deposed primary are rejected with an ack carrying
the newer epoch, which tells the old primary to demote itself.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.core.meta import obi_id_of, proxy_in_ref
from repro.core.packages import (
    FeedAck,
    FeedBatch,
    FeedSubscribeRequest,
    PromoteReply,
    PromoteRequest,
)
from repro.core.replication import build_put
from repro.feed.apply import apply_feed_frame
from repro.feed.service import ensure_feed_service, feed_ref
from repro.util.errors import FeedError, StaleEpochError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packages import FeedFrame, FeedSubscribeReply
    from repro.core.runtime import Site

#: How long a write-through waits for its own feed echo.
WRITE_CONFIRM_TIMEOUT_S = 30.0


class FeedFollower:
    """Attach to ``site`` as a follower; call :meth:`start` to subscribe."""

    def __init__(self, site: "Site"):
        self.site = site
        #: One guard for the cursor and epoch; doubles as the condition
        #: write-through waiters sleep on.
        self._applied = threading.Condition()
        self._epoch = site.change_log.epoch
        self._last_applied = site.change_log.latest_serial
        self._primary_id: str | None = None
        ensure_feed_service(site)
        site.feed_role = self
        site.feed_stats.set_gauges(role="follower", epoch=self._epoch)

    # ------------------------------------------------------------------
    # subscription lifecycle
    # ------------------------------------------------------------------
    def start(self, primary_site_id: str) -> None:
        """Subscribe (or re-subscribe) to ``primary_site_id``'s feed.

        One round trip: the reply carries one frame per object changed
        past our cursor.  It is applied through :meth:`handle_events`,
        epoch guard first, and the cursor then moves to the reply's
        serial.  Safe to call again after a partition heals — that *is*
        the reconnect path.
        """
        site = self.site
        self._primary_id = primary_site_id
        request = FeedSubscribeRequest(site_id=site.name, last_serial=self.last_applied_serial)
        with site.tracer.span(
            "feed.subscribe", primary=primary_site_id, since=request.last_serial
        ):
            reply = site.endpoint.invoke(
                feed_ref(primary_site_id), "feed_subscribe", (request,)
            )
        batch = FeedBatch(
            epoch=reply.epoch,
            primary_id=primary_site_id,
            latest_serial=reply.latest_serial,
            frames=reply.frames,
        )
        ack = self.handle_events(batch)
        if not ack.accepted:
            raise StaleEpochError(
                f"subscribe reply from {primary_site_id!r} carried epoch "
                f"{reply.epoch}, behind local epoch {ack.epoch}",
                frame_epoch=reply.epoch,
                current_epoch=ack.epoch,
            )
        site.change_log.advance(reply.latest_serial)
        with self._applied:
            if reply.latest_serial > self._last_applied:
                self._last_applied = reply.latest_serial
            self._applied.notify_all()
        site.feed_stats.add(catch_up_events=len(reply.frames))
        site.feed_stats.set_gauges(role="follower", lag_serials=0)

    def _adopt_epoch(self, epoch: int) -> None:
        with self._applied:
            if epoch > self._epoch:
                self._epoch = epoch
        self.site.change_log.adopt_epoch(epoch)
        self.site.feed_stats.set_gauges(epoch=self.site.change_log.epoch)

    # ------------------------------------------------------------------
    # verb handlers (dispatched by FeedService)
    # ------------------------------------------------------------------
    def handle_events(self, batch: FeedBatch) -> FeedAck:
        site = self.site
        with self._applied:
            current_epoch = self._epoch
            applied_serial = self._last_applied
        if batch.epoch < current_epoch:
            # The epoch guard (OBI210): a deposed primary's frames are
            # rejected wholesale; the ack's newer epoch tells it why.
            site.feed_stats.add(stale_epoch_rejects=len(batch.frames))
            return FeedAck(
                epoch=current_epoch, applied_serial=applied_serial, accepted=False
            )
        if batch.epoch > current_epoch:
            self._adopt_epoch(batch.epoch)
        applied = 0
        with site.tracer.span("feed.apply", frames=len(batch.frames)):
            for frame in batch.frames:
                if apply_feed_frame(site, frame):
                    applied += 1
                self._note_applied(frame)
        site.feed_stats.add(frames_applied=applied)
        with self._applied:
            applied_serial = self._last_applied
            epoch = self._epoch
        site.feed_stats.set_gauges(
            lag_serials=max(0, batch.latest_serial - applied_serial)
        )
        return FeedAck(epoch=epoch, applied_serial=applied_serial, accepted=True)

    def _note_applied(self, frame: "FeedFrame") -> None:
        # Mirror the event into our own journal so a promotion continues
        # the group's serial numbering and serves rejoins from any
        # cursor, then advance the cursor and wake write-through waiters.
        self.site.change_log.record_mirror(frame.serial, frame.oid, frame.version)
        with self._applied:
            if frame.serial > self._last_applied:
                self._last_applied = frame.serial
            self._applied.notify_all()

    def handle_subscribe(self, request: FeedSubscribeRequest) -> "FeedSubscribeReply":
        raise FeedError(
            f"site {self.site.name!r} is a follower of {self._primary_id!r}; "
            "subscribe to the primary"
        )

    def handle_promote(self, request: PromoteRequest) -> PromoteReply:
        with self._applied:
            current_epoch = self._epoch
        if request.epoch <= current_epoch:
            raise StaleEpochError(
                f"promotion to epoch {request.epoch} is not ahead of "
                f"local epoch {current_epoch}",
                frame_epoch=request.epoch,
                current_epoch=current_epoch,
            )
        return self.promote(epoch=request.epoch)

    # ------------------------------------------------------------------
    # write-through
    # ------------------------------------------------------------------
    def put_through(self, obj: object, *, timeout: float = WRITE_CONFIRM_TIMEOUT_S) -> dict[str, int]:
        """Write a local mirror's state back through the primary.

        Ships the state to the primary's proxy-in for the object, then
        blocks until the write's feed echo has been applied locally — an
        acknowledged write is durable at this follower, so a failover
        election (highest serial wins) can never lose it.  Raises
        :class:`FeedError` for an object this follower does not mirror,
        or if the echo does not land within ``timeout``.
        """
        site = self.site
        oid = obi_id_of(obj)
        primary_id = self._primary_id
        if primary_id is None or site.master_object_for(oid) is None:
            raise FeedError(
                f"no write-through target for {oid!r}; this follower does not mirror it"
            )
        provider = proxy_in_ref(primary_id, obj)
        with site.tracer.span("feed.write_through", oid=oid):
            package = build_put(site, [obj], primary_id)
            versions = site.endpoint.invoke(provider, "put", (package,))
            if not isinstance(versions, dict):
                raise FeedError(
                    f"write-through for {oid!r} returned {type(versions).__name__}"
                )
            self._await_version(obj, oid, versions.get(oid, 0), timeout)
        site.feed_stats.add(write_throughs=1)
        return versions

    def _await_version(self, obj: object, oid: str, version: int, timeout: float) -> None:
        """Block until the local mirror reaches ``version``."""

        def caught_up() -> bool:
            local = self.site.master_object_for(oid)
            return local is not None and self.site.master_version(local) >= version

        if caught_up():
            return
        with self._applied:
            while not caught_up():
                if not self._applied.wait(timeout):
                    raise FeedError(
                        f"write-through for {oid!r} was not confirmed within "
                        f"{timeout}s (mirror still behind version {version})"
                    )

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------
    def promote(self, *, epoch: int | None = None) -> PromoteReply:
        """Take over as primary; returns the new epoch and journal head.

        Exports a proxy-in for every mirrored master (they become real
        masters of the new epoch), rebinds the old primary's name-server
        entries to the local exports, and swaps the site's role for a
        :class:`~repro.feed.primary.FeedPrimary` at the bumped epoch.
        """
        from repro.feed.primary import FeedPrimary

        site = self.site
        with self._applied:
            new_epoch = epoch if epoch is not None else self._epoch + 1
        with site.tracer.span("feed.promote", epoch=new_epoch):
            site.change_log.adopt_epoch(new_epoch)
            for _oid, record in site.iter_masters():
                site.ensure_provider_for(record.obj)
            self._rebind_names()
            primary = FeedPrimary(site, epoch=new_epoch)
        site.feed_stats.add(promotions=1)
        reply = PromoteReply(
            epoch=primary.epoch,
            serial=site.change_log.latest_serial,
            site_id=site.name,
        )
        return reply

    def _rebind_names(self) -> None:
        """Rebind every name bound to one of the old primary's objects
        that this site mirrors: its proxy-in here has the same oid.

        The whole directory comes back in one ``bindings()`` call to the
        name-server site; only the names this site takes over cost a
        ``rebind`` each.
        """
        site = self.site
        naming = site.naming
        for name, ref in naming.bindings().items():
            if ref.site_id != self._primary_id:
                continue
            master = site.master_object_for(ref.object_id)
            if master is not None:
                naming.rebind(name, site.ensure_provider_for(master)[0])

    # ------------------------------------------------------------------
    # operator surface
    # ------------------------------------------------------------------
    @property
    def last_applied_serial(self) -> int:
        with self._applied:
            return self._last_applied

    @property
    def epoch(self) -> int:
        with self._applied:
            return self._epoch

    @property
    def primary_id(self) -> str | None:
        return self._primary_id

    def repoint(self, new_primary_id: str) -> None:
        """Follow a different (newly promoted) primary from our cursor."""
        self.start(new_primary_id)

    def detach(self) -> None:
        """Stop following (the site is closing).  The primary pushes, so
        there is nothing to cancel: its next push to us fails and stalls
        this subscription."""
        self.site.feed_stats.set_gauges(role="none")

    def __repr__(self) -> str:
        return (
            f"FeedFollower({self.site.name!r}, primary={self._primary_id!r}, "
            f"epoch={self.epoch}, serial={self.last_applied_serial})"
        )
