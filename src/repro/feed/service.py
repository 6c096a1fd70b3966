"""The exported feed service: one well-known object per site.

Like the name server, the feed service lives under a well-known object
id so peers can construct a :class:`~repro.rmi.refs.RemoteRef` to it
from a site id alone — no directory round trip.  The service itself is
a thin dispatcher: every verb routes to whatever role
(:class:`~repro.feed.primary.FeedPrimary` /
:class:`~repro.feed.follower.FeedFollower`) is currently attached to the
site, so a failover promotion swaps behaviour without re-exporting
anything or invalidating subscriber-held refs.

A site with no feed role never exported this object, so a feed verb sent
to it fails with the skeleton's ``ProtocolError`` (``no exported object
'obj:feed'``): the caller of ``feed_subscribe`` / ``promote`` sees that
error, and a primary stalls a subscriber whose push meets it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rmi.refs import RemoteRef
from repro.util.errors import FeedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packages import (
        FeedAck,
        FeedBatch,
        FeedSubscribeReply,
        FeedSubscribeRequest,
        PromoteReply,
        PromoteRequest,
    )
    from repro.core.runtime import Site

#: Well-known export id of every site's feed service.
FEED_OBJECT_ID = "obj:feed"

#: Interface name the service is exported under.
FEED_INTERFACE = "IFeed"

#: The feed control surface, for stub construction.
FEED_METHODS = ("feed_subscribe", "feed_events", "promote")


def feed_ref(site_id: str) -> RemoteRef:
    """A ref to ``site_id``'s feed service (exported or not)."""
    return RemoteRef(site_id=site_id, object_id=FEED_OBJECT_ID, interface=FEED_INTERFACE)


class FeedService:
    """Verb dispatcher exported under :data:`FEED_OBJECT_ID`."""

    def __init__(self, site: "Site"):
        self._site = site

    def _role(self):
        role = self._site.feed_role
        if role is None:
            raise FeedError(
                f"site {self._site.name!r} has no feed role attached; "
                "create one with feed_primary() or feed_follow()"
            )
        return role

    # The three wire verbs -----------------------------------------------
    def feed_subscribe(self, request: "FeedSubscribeRequest") -> "FeedSubscribeReply":
        return self._role().handle_subscribe(request)

    def feed_events(self, batch: "FeedBatch") -> "FeedAck":
        return self._role().handle_events(batch)

    def promote(self, request: "PromoteRequest") -> "PromoteReply":
        return self._role().handle_promote(request)


def ensure_feed_service(site: "Site") -> RemoteRef:
    """Export the site's feed service if it is not exported yet."""
    if FEED_OBJECT_ID not in site.endpoint.objects:
        site.endpoint.export(
            FeedService(site), object_id=FEED_OBJECT_ID, interface=FEED_INTERFACE
        )
    return feed_ref(site.name)
