"""Fixtures for the change-feed suite: a primary with live followers."""

from __future__ import annotations

import pytest

from repro.core.meta import obi_id_of
from tests.models import Box


@pytest.fixture
def feed_world(zero_world):
    """The world every feed scenario runs in: zero-cost loopback here,
    TCP in ``test_feed_tcp.py``, which overrides it."""
    return zero_world


@pytest.fixture
def group(feed_world):
    """Primary ``P`` exporting one Box, followers ``F1``/``F2`` tailing it.

    The name server lives on its own site (``NS``): promotion rebinds
    the group's names, so the name service must survive the primary —
    hosting it on ``P`` would partition it away with the failure.
    """
    feed_world.create_site("NS")  # first site hosts the name server
    primary_site = feed_world.create_site("P")
    box = Box(1)
    primary_site.export(box, name="box")
    primary = primary_site.feed_primary()
    f1 = feed_world.create_site("F1").feed_follow("P")
    f2 = feed_world.create_site("F2").feed_follow("P")
    return feed_world, primary, f1, f2, box


def mirror_of(follower, obj):
    """The follower-side mirror of a primary master (None before sync)."""
    return follower.site.master_object_for(obi_id_of(obj))
