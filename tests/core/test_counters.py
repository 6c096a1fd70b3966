"""The one counter implementation behind every ``*Stats`` group."""

from __future__ import annotations

import pytest

from repro.core.telemetry import FeedStats, SerialPathStats, SyncPathStats


def test_snapshot_keys_follow_field_order():
    assert list(SyncPathStats().snapshot()) == ["puts_full", "refreshes_full"]
    assert list(SerialPathStats().snapshot()) == [
        "encodes_fast",
        "encodes_reflective",
        "decodes_fast",
        "frames_encoded",
        "frames_decoded",
        "encode_ns",
        "decode_ns",
    ]


def test_add_rejects_unknown_names_and_changes_nothing():
    stats = SyncPathStats()
    with pytest.raises(TypeError, match="no counter 'puts'"):
        stats.add(puts=1)
    assert stats.snapshot() == {"puts_full": 0, "refreshes_full": 0}


def test_gauges_are_set_not_added():
    stats = FeedStats()
    with pytest.raises(TypeError):
        stats.add(lag_serials=3)
    stats.set_gauges(role="follower", epoch=2, lag_serials=5)
    stats.add(frames_applied=4)
    before = stats.reset()
    assert before["role"] == "follower"
    assert before["frames_applied"] == 4
    after = stats.snapshot()
    assert (after["role"], after["epoch"], after["lag_serials"]) == ("follower", 2, 5)
    assert after["frames_applied"] == 0


def test_attribute_reads_see_adds():
    stats = SerialPathStats()
    stats.add(frames_encoded=1, encode_ns=250)
    stats.add(frames_encoded=2)
    assert (stats.frames_encoded, stats.encode_ns) == (3, 250)
