"""Wire packages exchanged by the replication protocol.

A :class:`ReplicaPackage` is what ``get``/``demand`` returns: a serialized
object-graph payload plus each member's version.  A :class:`PutPackage`
carries replica state back to masters, every entry's state in one
payload.

Graph payloads are pre-serialized into ``bytes`` by the replication engine
with a context-specific swizzler, so packages travel through the ordinary
RMI codec without any endpoint-level hooks, and their exact wire size is
available to the cost model.

Every class here is a slots dataclass: its declared fields, in order, are
its wire schema (:mod:`repro.serial.compiled` generates the positional
codec at registration), so adding, removing or reordering a field is a
wire change — ``obiwire check`` pins the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serial.registry import global_registry


@dataclass(slots=True)
class ReplicaPackage:
    """The provider's answer to ``get(mode)``.

    It carries no mode and no references: the consumer integrates it
    under the mode it asked with, and every member's proxy-in — the
    root's alone under a clustered mode — is exported under the member's
    oid on the site the consumer asked.
    """

    root_id: str = ""
    payload: bytes = b""
    #: oid → master version of every member, root first.
    meta: dict[str, int] = field(default_factory=dict)
    #: How many proxy pairs the provider created while building this
    #: package (frontier pairs plus, in per-object mode, member pairs) —
    #: reported so benchmarks can assert the paper's pair-count claims.
    pairs_created: int = 0

    @property
    def object_count(self) -> int:
        return len(self.meta)


@dataclass(slots=True)
class PutEntry:
    """One object travelling back to its master."""

    obi_id: str = ""
    #: Master version the consumer last saw — consistency protocols use it
    #: for staleness/conflict detection; the core ignores it.
    version_seen: int = 0


@dataclass(slots=True)
class PutPackage:
    """The consumer's ``put``: one entry per object being written back,
    and one ``payload`` frame — the list of their states, in entry order."""

    entries: list[PutEntry] = field(default_factory=list)
    payload: bytes = b""


# ----------------------------------------------------------------------
# change-feed frames (see repro.feed)
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FeedFrame:
    """One journaled change streamed primary → follower.

    ``payload`` is the master's full state encoded with the packaging
    swizzler (references travel as proxy-out descriptions, exactly like a
    :class:`ReplicaPackage` payload).  The primary exports the object's
    proxy-in under ``oid``, so followers write through without a
    reference shipped.  ``serial`` and ``epoch`` order the frame in the
    group's history.
    """

    serial: int = 0
    epoch: int = 0
    oid: str = ""
    interface: str = ""
    version: int = 0
    payload: bytes = b""


@dataclass(slots=True)
class FeedBatch:
    """A push of one or more frames: the ``feed_events`` argument.

    ``latest_serial`` is the primary's journal head at push time so the
    follower can compute its lag without another round trip.
    """

    epoch: int = 0
    primary_id: str = ""
    latest_serial: int = 0
    frames: list[FeedFrame] = field(default_factory=list)


@dataclass(slots=True)
class FeedAck:
    """The follower's answer to ``feed_events``.

    ``accepted=False`` with a higher ``epoch`` tells a deposed primary it
    has been failed over — its frames were rejected, not applied.
    """

    epoch: int = 0
    applied_serial: int = 0
    accepted: bool = True


@dataclass(slots=True)
class FeedSubscribeRequest:
    """Register ``site_id`` as a follower, catching up from ``last_serial``."""

    site_id: str = ""
    last_serial: int = 0


@dataclass(slots=True)
class FeedSubscribeReply:
    """The primary's answer to ``feed_subscribe``: the follower's join.

    Every serial up to ``latest_serial`` is covered by ``frames``, so the
    follower moves its cursor there once they are applied.  ``frames``
    holds one frame per object whose latest journal serial is past
    ``last_serial``, at that serial, in serial order — from any cursor,
    0 included.
    """

    epoch: int = 0
    latest_serial: int = 0
    frames: list[FeedFrame] = field(default_factory=list)


@dataclass(slots=True)
class PromoteRequest:
    """Ask a follower to take over as primary at ``epoch``."""

    epoch: int = 0
    reason: str = ""


@dataclass(slots=True)
class PromoteReply:
    """Promotion confirmation: the new primary's epoch and journal head."""

    epoch: int = 0
    serial: int = 0
    site_id: str = ""


for _pkg_cls, _wire_name in (
    (ReplicaPackage, "core.ReplicaPackage"),
    (PutEntry, "core.PutEntry"),
    (PutPackage, "core.PutPackage"),
    (FeedFrame, "feed.FeedFrame"),
    (FeedBatch, "feed.FeedBatch"),
    (FeedAck, "feed.FeedAck"),
    (FeedSubscribeRequest, "feed.FeedSubscribeRequest"),
    (FeedSubscribeReply, "feed.FeedSubscribeReply"),
    (PromoteRequest, "feed.PromoteRequest"),
    (PromoteReply, "feed.PromoteReply"),
):
    global_registry.register(_pkg_cls, name=_wire_name)
