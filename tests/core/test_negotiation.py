"""Shared probe-and-downgrade negotiation helper (PR 8 satellite).

``repro.core.negotiation`` is the single implementation of the
probe/classify/remember dance and its per-provider cache.  These
tests cover the helper in isolation (capability table, probe semantics,
thread safety) and through the Site paths that adopted it.
"""

import threading

import pytest

from repro.core.negotiation import (
    DELTA_SYNC,
    FEED,
    UNSUPPORTED,
    Capability,
    PeerCapabilities,
    probe,
)
from repro.core.meta import obi_id_of
from repro.util.errors import ProtocolError, RemoteError
from tests.models import Counter


# ----------------------------------------------------------------------
# PeerCapabilities
# ----------------------------------------------------------------------
class TestPeerCapabilities:
    def test_every_site_starts_fully_capable(self):
        caps = PeerCapabilities()
        assert caps.assume("S9", DELTA_SYNC)
        assert caps.assume("S9", FEED)
        assert caps.snapshot() == {}

    def test_mark_is_per_site_and_per_capability(self):
        caps = PeerCapabilities()
        caps.mark_unsupported("S2", DELTA_SYNC)
        assert not caps.assume("S2", DELTA_SYNC)
        assert caps.assume("S2", FEED)  # other capability untouched
        assert caps.assume("S3", DELTA_SYNC)  # other site untouched

    def test_accepts_capability_or_bare_name(self):
        caps = PeerCapabilities()
        caps.mark_unsupported("S2", "delta_sync")
        assert not caps.assume("S2", DELTA_SYNC)
        assert not caps.assume("S2", "delta_sync")

    def test_forget_restores_optimism(self):
        caps = PeerCapabilities()
        caps.mark_unsupported("S2", DELTA_SYNC)
        caps.mark_unsupported("S2", FEED)
        caps.forget("S2")
        assert caps.assume("S2", DELTA_SYNC)
        assert caps.assume("S2", FEED)

    def test_snapshot_is_immutable_copy(self):
        caps = PeerCapabilities()
        caps.mark_unsupported("S2", DELTA_SYNC)
        shot = caps.snapshot()
        assert shot == {"S2": frozenset({"delta_sync"})}
        caps.mark_unsupported("S2", FEED)
        assert shot == {"S2": frozenset({"delta_sync"})}  # old copy unchanged

    def test_concurrent_marks_never_lose_verdicts(self):
        caps = PeerCapabilities()
        sites = [f"S{i}" for i in range(8)]

        def hammer(name: str) -> None:
            for _ in range(200):
                caps.mark_unsupported(name, DELTA_SYNC)
                caps.mark_unsupported(name, FEED)
                assert not caps.assume(name, DELTA_SYNC)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in sites]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        shot = caps.snapshot()
        assert all(shot[s] == {"delta_sync", "feed"} for s in sites)


# ----------------------------------------------------------------------
# probe()
# ----------------------------------------------------------------------
class TestProbe:
    def test_success_passes_result_through(self):
        caps = PeerCapabilities()
        assert probe(caps, "S2", DELTA_SYNC, lambda: {"oid": 3}) == {"oid": 3}
        assert caps.assume("S2", DELTA_SYNC)  # no verdict recorded

    def test_unsupported_shape_caches_and_returns_sentinel(self):
        caps = PeerCapabilities()
        def attempt():
            raise ProtocolError("object has no method 'put_delta'")
        assert probe(caps, "S2", DELTA_SYNC, attempt) is UNSUPPORTED
        assert not caps.assume("S2", DELTA_SYNC)

    def test_genuine_failure_propagates_uncached(self):
        caps = PeerCapabilities()
        def attempt():
            raise ProtocolError("frame too large")
        with pytest.raises(ProtocolError, match="frame too large"):
            probe(caps, "S2", DELTA_SYNC, attempt)
        assert caps.assume("S2", DELTA_SYNC)

    def test_unlisted_exception_type_propagates(self):
        caps = PeerCapabilities()
        def attempt():
            raise RuntimeError("disk on fire")
        with pytest.raises(RuntimeError):
            probe(caps, "S2", DELTA_SYNC, attempt)
        assert caps.assume("S2", DELTA_SYNC)

    def test_sentinel_is_falsy_and_singleton(self):
        assert not UNSUPPORTED
        assert UNSUPPORTED is type(UNSUPPORTED)()


# ----------------------------------------------------------------------
# the shipped capability predicates
# ----------------------------------------------------------------------
class TestDeltaSyncShapes:
    def test_missing_method_means_unversioned_peer(self):
        exc = ProtocolError("object 'o1' has no method 'put_delta'")
        assert DELTA_SYNC.unsupported(exc)

    def test_flattened_attribute_error_means_unversioned_peer(self):
        exc = RemoteError("boom", remote_type="AttributeError")
        assert DELTA_SYNC.unsupported(exc)

    def test_other_remote_failures_are_genuine(self):
        assert not DELTA_SYNC.unsupported(RemoteError("x", remote_type="KeyError"))
        assert not DELTA_SYNC.unsupported(ProtocolError("frame too large"))


# ----------------------------------------------------------------------
# Site integration: one cache for every negotiation
# ----------------------------------------------------------------------
class TestSiteSharedCache:
    def test_delta_probe_records_into_shared_table(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        consumer.delta_sync = True
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")

        # Strip the delta verbs from the provider's skeleton so it looks
        # like an unversioned (pre-PR-4) peer.
        oid = obi_id_of(master)
        ref = provider._provider_refs[provider._stripe_of(oid)][oid]
        table = provider.endpoint.objects
        inner = table.get(ref.object_id)

        class UnversionedProxyIn:
            def __getattr__(self, name):
                if name in ("put_delta", "get_delta"):
                    raise AttributeError(name)
                return getattr(inner, name)

        table._objects[ref.object_id] = UnversionedProxyIn()
        replica.increment()
        consumer.put_back(replica)
        assert master.read() == 2  # fell back to the full put

        shot = consumer.peer_caps.snapshot()
        assert shot[provider.name] == {"delta_sync"}
        assert not consumer._delta_peer_ok(ref)

    def test_verdicts_for_both_capabilities_coexist(self, zero_world):
        consumer = zero_world.create_site("S1")
        consumer.peer_caps.mark_unsupported("S2", DELTA_SYNC)
        consumer.peer_caps.mark_unsupported("S2", FEED)
        assert consumer.peer_caps.snapshot()["S2"] == {
            "delta_sync",
            "feed",
        }


# ----------------------------------------------------------------------
# Topology-driven cache invalidation (PR 10 satellite)
# ----------------------------------------------------------------------
class TestTopologyInvalidation:
    """A peer that detaches and re-attaches may be a restarted build —
    possibly upgraded — so its cached capability verdicts must not
    outlive its connection."""

    def test_detach_forgets_the_peers_verdicts(self, zero_world):
        consumer = zero_world.create_site("S1")
        provider = zero_world.create_site("S2")
        consumer.peer_caps.mark_unsupported(provider.name, DELTA_SYNC)
        assert not consumer.peer_caps.assume(provider.name, DELTA_SYNC)
        zero_world.network.detach(provider.name)
        assert consumer.peer_caps.assume(provider.name, DELTA_SYNC)

    def test_reattach_forgets_verdicts_cached_while_detached(self, zero_world):
        consumer = zero_world.create_site("S1")
        consumer.peer_caps.mark_unsupported("S2", FEED)
        zero_world.create_site("S2")  # the peer comes up after the verdict
        assert consumer.peer_caps.assume("S2", FEED)

    def test_own_attach_leaves_other_verdicts_alone(self, zero_world):
        consumer = zero_world.create_site("S1")
        consumer.peer_caps.mark_unsupported("S2", DELTA_SYNC)
        zero_world.create_site("S3")  # unrelated peer churning
        assert not consumer.peer_caps.assume("S2", DELTA_SYNC)
