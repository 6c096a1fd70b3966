"""Tests for access control on exported objects."""

# obilint: disable-file=OBI204 -- TestPutAuthorisedPerEntry forges raw puts through a chosen proxy-in; the replicas come from the fixture

from types import SimpleNamespace

import pytest

from repro.core.meta import obi_id_of
from repro.core.replication import build_put
from repro.rmi.acl import AccessGuard, AccessPolicy
from repro.util.errors import ReplicationError, SecurityError
from tests.models import Counter


class TestPolicy:
    def test_default_deny(self):
        policy = AccessPolicy()
        assert not policy.allows("anyone", "anything")

    def test_default_allow(self):
        policy = AccessPolicy(default_allow=True)
        assert policy.allows("anyone", "anything")

    def test_local_caller_always_allowed(self):
        policy = AccessPolicy()  # deny everything remote
        assert policy.allows(None, "put")

    def test_first_match_wins(self):
        policy = AccessPolicy().deny("evil-*").allow("*")
        assert not policy.allows("evil-site", "get")
        assert policy.allows("good-site", "get")

    def test_method_patterns(self):
        policy = AccessPolicy().allow("*", "get*").deny("*", "*")
        assert policy.allows("x", "get")
        assert policy.allows("x", "get_version")
        assert not policy.allows("x", "put")

    def test_read_only_preset(self):
        policy = AccessPolicy.read_only()
        assert policy.allows("anyone", "get")
        assert policy.allows("anyone", "demand")
        assert not policy.allows("anyone", "put")

    def test_sites_only_preset(self):
        policy = AccessPolicy.sites_only("hq-*", "branch-1")
        assert policy.allows("hq-lisbon", "put")
        assert policy.allows("branch-1", "get")
        assert not policy.allows("branch-2", "get")


class TestGuardedExport:
    def test_authorized_site_full_protocol(self, zsites):
        provider, consumer = zsites
        master = Counter(1)
        provider.export_guarded(
            master, AccessPolicy.sites_only("S1"), name="guarded"
        )
        replica = consumer.replicate("guarded")
        assert replica.read() == 1
        replica.increment()
        consumer.put_back(replica)
        assert master.value == 2
        consumer.refresh(replica)

    def test_unauthorized_site_denied_with_security_error(self, zero_world):
        provider = zero_world.create_site("S2")
        friend = zero_world.create_site("friend")
        stranger = zero_world.create_site("stranger")
        master = Counter(1)
        provider.export_guarded(
            master, AccessPolicy.sites_only("friend"), name="guarded"
        )
        friend.replicate("guarded")  # fine
        with pytest.raises(SecurityError, match="not allowed"):
            stranger.replicate("guarded")

    def test_read_only_export(self, zsites):
        provider, consumer = zsites
        master = Counter(5)
        provider.export_guarded(master, AccessPolicy.read_only(), name="reference")
        replica = consumer.replicate("reference")  # get allowed
        assert replica.read() == 5
        replica.increment()
        with pytest.raises(SecurityError):
            consumer.put_back(replica)
        assert master.value == 5

    def test_rmi_mode_also_guarded(self, zsites):
        provider, consumer = zsites
        master = Counter(0)
        provider.export_guarded(
            master,
            AccessPolicy().allow("*", "read").deny("*", "*"),
            name="rmi-guarded",
        )
        stub = consumer.remote_stub("rmi-guarded")
        assert stub.read() == 0
        with pytest.raises(SecurityError):
            stub.increment()

    def test_faults_through_guarded_frontier(self, zsites):
        """A demand against a guarded provider honours the policy."""
        from tests.models import make_chain

        provider, consumer = zsites
        head = make_chain(3)
        provider.export_guarded(head, AccessPolicy.read_only(), name="ro-chain")
        replica = consumer.replicate("ro-chain")
        # The frontier proxy-in for node 1 is exported *unguarded* by the
        # engine; the guarded policy applies to the named root.
        assert replica.get_next().get_index() == 1

    def test_local_use_of_guarded_master_unrestricted(self, zsites):
        provider, _consumer = zsites
        master = Counter(0)
        provider.export_guarded(master, AccessPolicy(), name="locked")
        master.increment()  # plain local call
        assert provider.replicate("locked") is master  # local short-circuit

    def test_guard_after_plain_export_rejected(self, zsites):
        provider, _consumer = zsites
        master = Counter(0)
        provider.export(master)
        with pytest.raises(ReplicationError, match="unguarded"):
            provider.export_guarded(master, AccessPolicy())

    def test_denial_counter(self, zero_world):
        provider = zero_world.create_site("P")
        stranger = zero_world.create_site("X")
        master = Counter(0)
        ref = provider.export_guarded(master, AccessPolicy(), name="sealed")
        guard: AccessGuard = provider.endpoint.objects.get(ref.object_id)
        for _ in range(3):
            with pytest.raises(SecurityError):
                stranger.replicate("sealed")
        assert guard.denials == 3


class TestPutAuthorisedPerEntry:
    """A ``put`` names masters by oid, so every entry answers to the guard
    its *own* oid was exported behind — whichever proxy-in received it."""

    @pytest.fixture
    def doors(self, zsites):
        """Master ``a`` exported read-only beside an unguarded ``b``."""
        provider, consumer = zsites
        a, b = Counter(1), Counter(10)
        ref_a = provider.export_guarded(a, AccessPolicy.read_only(), name="a")
        provider.export(b, name="b")
        replica_b = consumer.replicate("b")
        return SimpleNamespace(
            provider=provider,
            consumer=consumer,
            a=a,
            b=b,
            replica_a=consumer.replicate("a"),
            replica_b=replica_b,
            provider_of_b=consumer.replica_info(obi_id_of(replica_b)).provider,
            guard_of_a=provider.endpoint.objects.get(ref_a.object_id),
        )

    def test_guarded_master_not_writable_through_unguarded_neighbour(self, doors):
        d = doors
        d.replica_a.increment()
        with pytest.raises(SecurityError):
            d.consumer.put_back(d.replica_a)  # the front door was always shut
        assert d.guard_of_a.denials == 1
        journal_head = d.provider.change_log.latest_serial
        with pytest.raises(SecurityError, match="not allowed to call 'put'"):
            d.consumer.endpoint.invoke(
                d.provider_of_b, "put", (build_put(d.consumer, [d.replica_a]),)
            )
        assert d.a.value == 1
        assert d.provider.version_of(d.a) == 1
        assert d.provider.change_log.latest_serial == journal_head
        assert d.guard_of_a.denials == 2  # counted on the guard of the entry's oid

    def test_one_denied_entry_rejects_the_whole_put(self, doors):
        d = doors
        d.replica_a.increment()
        d.replica_b.increment()
        package = build_put(d.consumer, [d.replica_b, d.replica_a])
        with pytest.raises(SecurityError):
            d.consumer.endpoint.invoke(d.provider_of_b, "put", (package,))
        assert (d.a.value, d.b.value) == (1, 10)  # nothing applied, not even b

    def test_authorised_caller_writes_through_either_door(self, zero_world):
        provider = zero_world.create_site("S2")
        friend = zero_world.create_site("friend")
        a, b = Counter(1), Counter(10)
        provider.export_guarded(a, AccessPolicy.sites_only("friend"), name="a")
        provider.export(b, name="b")
        replica_a = friend.replicate("a")
        provider_of_b = friend.replica_info(obi_id_of(friend.replicate("b"))).provider
        replica_a.increment()
        friend.put_back(replica_a)
        assert a.value == 2
        replica_a.increment()
        friend.endpoint.invoke(provider_of_b, "put", (build_put(friend, [replica_a]),))
        assert a.value == 3


class TestGuardOverLiveTransport:
    def test_security_error_crosses_tcp(self):
        from repro.core.runtime import World

        with World.tcp() as world:
            provider = world.create_site("P")
            stranger = world.create_site("X")
            master = Counter(0)
            provider.export_guarded(
                master, AccessPolicy.sites_only("nobody"), name="sealed"
            )
            with pytest.raises(SecurityError):
                stranger.replicate("sealed")
