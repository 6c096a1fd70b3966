"""obifeed: primary/follower change-feed replication (PR 10).

Every site journals the changes it applies to its masters in a
:class:`~repro.core.versions.ChangeLog`; this package streams that
journal.  A :class:`~repro.feed.primary.FeedPrimary`
turns a site into the group's write master: every local change is
journaled with a dense serial number and pushed to subscribed followers
as a :class:`~repro.core.packages.FeedFrame`.  A
:class:`~repro.feed.follower.FeedFollower` registers over RMI, tails the
feed continuously, catches up from its last applied serial after a
disconnection (the journal keeps each object's latest event, so the
reply is the objects changed since), proxies writes through to the
primary, and can be promoted to primary when the primary dies — the
group re-points via an epoch number stamped on every frame so a deposed
primary's frames are recognizably stale.

Modelled on the devpi-server replication protocol (event serials,
primary-URL followers, write-through, failover) and Oracle's
add-a-site-without-quiescing multimaster scheme: a new follower joins a
live group in one subscribe reply — it is registered first, the reply's
serial is captured before encoding, concurrently with ongoing puts, and
live pushes overlap the reply under a version-monotonic apply guard.

See ``docs/HA.md`` for the role model and the failover runbook.
"""

from repro.feed.apply import apply_feed_frame
from repro.feed.failover import elect_new_primary, fail_over, request_promotion
from repro.feed.follower import FeedFollower
from repro.feed.primary import FeedPrimary
from repro.feed.service import (
    FEED_INTERFACE,
    FEED_METHODS,
    FEED_OBJECT_ID,
    FeedService,
    ensure_feed_service,
    feed_ref,
)

__all__ = [
    "FEED_INTERFACE",
    "FEED_METHODS",
    "FEED_OBJECT_ID",
    "FeedFollower",
    "FeedPrimary",
    "FeedService",
    "apply_feed_frame",
    "elect_new_primary",
    "ensure_feed_service",
    "fail_over",
    "feed_ref",
    "request_promotion",
]
