"""Applying one feed frame to a follower's local tables.

A frame carries the primary's full state for one object as an instance
frame (references travel as proxy-out descriptors, so they re-link to
local mirrors when present and fault lazily otherwise).
Application is **version-monotonic**: a frame older than the local
mirror is dropped.  That guard is what lets a join reply apply
concurrently with live pushes — whichever lands second per object is a
no-op or a strict improvement — so adding a follower never quiesces the
group.

Callers must check the frame's epoch against their own *before* calling
:func:`apply_feed_frame`; obiflow rule OBI210 machine-checks that
discipline (a stale-primary frame applied without the check is a
split-brain write).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.interfaces import ReplicationMode
from repro.core.meta import compiled_registry, obi_id_of
from repro.core.replication import SiteUnswizzler
from repro.serial.decoder import Decoder
from repro.util.errors import FeedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packages import FeedFrame
    from repro.core.runtime import Site


def apply_feed_frame(site: "Site", frame: "FeedFrame") -> bool:
    """Apply one frame to ``site``'s tables; True when state changed.

    Creates the local mirror (a proxy-in-less master record, like a
    cluster member's) on first sight of an oid; otherwise replaces the
    mirror's state in place so existing references stay valid.  The
    mirrored version is adopted from the frame — followers never mint
    version numbers of their own.
    """
    local = site.master_object_for(frame.oid)
    if local is not None and site.master_version(local) >= frame.version:
        return False

    decoder = Decoder(
        site.registry, SiteUnswizzler(site, ReplicationMode()), stats=site.serial_stats
    )
    site.charge_serialization(len(frame.payload))
    cls = type(local) if local is not None else compiled_registry.by_interface(frame.interface).cls
    decoded = decoder.decode(frame.payload)
    if type(decoded) is not cls:
        raise FeedError(
            f"feed frame for {frame.oid!r} must decode to an instance of "
            f"{cls.__name__}, got {type(decoded).__name__}"
        )
    state = vars(decoded)

    if local is None:
        local = cls.__new__(cls)
        vars(local).update(state)
        vars(local)["_obi_id"] = frame.oid
        if obi_id_of(local) != frame.oid:
            raise FeedError(
                f"mirror for {frame.oid!r} materialized with id {obi_id_of(local)!r}"
            )
        site.note_master(local)
    else:
        preserved_id = vars(local).get("_obi_id")
        vars(local).clear()
        vars(local).update(state)
        if preserved_id is not None:
            vars(local)["_obi_id"] = preserved_id
    site.adopt_master_version(frame.oid, frame.version)
    return True
