"""Failover orchestration: elect, promote, re-point.

The election rule is the one event-serial replication admits: the
follower with the **highest applied serial** has every acknowledged
write (a write is only acknowledged once its feed echo landed at the
acking follower, and serials apply in order), so promoting it loses
nothing.  Ties break on site name for determinism.

Promotion is requested over the wire (the `promote` verb) or in-process via
:meth:`~repro.feed.follower.FeedFollower.promote`; either way the new
primary's epoch is the old epoch + 1, and every frame the deposed
primary might still push carries the old epoch and is rejected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.packages import PromoteReply, PromoteRequest
from repro.feed.service import feed_ref
from repro.util.errors import FeedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site
    from repro.feed.follower import FeedFollower


def elect_new_primary(followers: "list[FeedFollower]") -> "FeedFollower":
    """The failover winner: highest applied serial, ties by site name.

    The name tie-break takes the *smallest* name so every site that runs
    the election independently picks the same winner.
    """
    if not followers:
        raise FeedError("cannot elect a primary from zero followers")
    ranked = sorted(followers, key=lambda f: (-f.last_applied_serial, f.site.name))
    return ranked[0]


def request_promotion(
    site: "Site", follower_site_id: str, *, epoch: int, reason: str = ""
) -> PromoteReply:
    """Ask ``follower_site_id`` (over RMI) to take over at ``epoch``."""
    target = feed_ref(follower_site_id)
    request = PromoteRequest(epoch=epoch, reason=reason)
    with site.tracer.span("feed.promote_request", winner=follower_site_id, epoch=epoch):
        return site.endpoint.invoke(target, "promote", (request,))


def fail_over(followers: "list[FeedFollower]", *, reason: str = "") -> PromoteReply:
    """The runbook in one call: elect, promote in-process, re-point the rest.

    Returns the :class:`~repro.core.packages.PromoteReply`; the winner's
    site now carries a :class:`~repro.feed.primary.FeedPrimary` role and
    every other follower tails it from its own cursor: the winner's
    mirrored journal holds each object's latest serial, so a survivor
    receives exactly the objects changed since its cursor.
    """
    winner = elect_new_primary(followers)
    reply = winner.promote()
    for follower in followers:
        if follower is winner:
            continue
        follower.repoint(reply.site_id)
    return reply
