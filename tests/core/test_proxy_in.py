"""Direct tests for the proxy-in (provider-side half of the pair)."""

import pytest

from repro.core.interfaces import Cluster, Incremental
from repro.core.meta import obi_id_of
from repro.core.packages import ReplicaPackage
from repro.core.proxy_in import PROXY_IN_CONTROL_METHODS, ProxyIn
from repro.rmi.acl import AccessPolicy
from repro.rmi.refs import RemoteRef
from repro.util.errors import ProtocolError
from tests.models import Counter, make_chain


@pytest.fixture
def exported(zsites):
    provider, consumer = zsites
    master = Counter(5)
    ref = provider.export(master, name="counter")
    proxy_in = provider.endpoint.objects.get(ref.object_id)
    return provider, consumer, master, ref, proxy_in


class TestControlInterface:
    def test_control_methods_exist(self, exported):
        _p, _c, _m, _ref, proxy_in = exported
        for method in PROXY_IN_CONTROL_METHODS:
            assert callable(getattr(proxy_in, method))

    def test_get_builds_a_package(self, exported):
        _p, _c, master, _ref, proxy_in = exported
        package = proxy_in.get(Incremental(1))
        assert isinstance(package, ReplicaPackage)
        assert package.root_id == obi_id_of(master)
        assert package.object_count == 1

    def test_get_default_mode_is_incremental_one(self, zsites):
        provider, _consumer = zsites
        head = make_chain(3)
        ref = provider.export(head, name="chain")
        package = provider.endpoint.objects.get(ref.object_id).get()
        assert package.meta == {obi_id_of(head): 1}  # the root alone
        assert package.pairs_created == 1  # and its frontier's pair
        assert not hasattr(package, "mode")  # the consumer knows its own mode

    def test_demand_equals_get(self, zsites):
        provider, _consumer = zsites
        ref = provider.export(make_chain(3), name="chain")
        proxy_in = provider.endpoint.objects.get(ref.object_id)
        a = proxy_in.get(Cluster(size=2))
        b = proxy_in.demand(Cluster(size=2))
        assert a.root_id == b.root_id
        assert a.meta == b.meta
        assert a.payload == b.payload

    def test_get_version_tracks_master(self, exported):
        provider, _c, master, _ref, proxy_in = exported
        assert proxy_in.get_version() == 1
        provider.touch(master)
        assert proxy_in.get_version() == 2


class TestIllTypedArguments:
    """A control verb given the wrong type fails typed and changes nothing."""

    @staticmethod
    def _state(provider, master):
        return provider.master_version(master), provider.change_log.latest_serial

    @pytest.mark.parametrize("verb", ["get", "demand"])
    @pytest.mark.parametrize("scope", [1, "Incremental(1)", (1, 0, False)])
    def test_a_scope_that_is_not_a_mode_is_a_protocol_error(self, exported, verb, scope):
        provider, consumer, master, ref, _proxy_in = exported
        before = self._state(provider, master)
        with pytest.raises(ProtocolError, match="ReplicationMode"):
            consumer.endpoint.invoke(ref, verb, (scope,))
        assert self._state(provider, master) == before

    @pytest.mark.parametrize("oids", [7, [["obj:1"]], [{"oid": "obj:1"}]])
    def test_a_version_probe_of_non_strings_is_a_protocol_error(self, exported, oids):
        provider, consumer, master, ref, _proxy_in = exported
        before = self._state(provider, master)
        with pytest.raises(ProtocolError, match="list of oid strings"):
            consumer.endpoint.invoke(ref, "get_version", (oids,))
        assert self._state(provider, master) == before


class TestForwarding:
    def test_interface_methods_forward_to_master(self, exported):
        _p, _c, master, _ref, proxy_in = exported
        assert proxy_in.read() == 5
        proxy_in.increment(2)
        assert master.value == 7

    def test_private_names_raise_attribute_error(self, exported):
        _p, _c, _m, _ref, proxy_in = exported
        with pytest.raises(AttributeError):
            proxy_in._not_forwarded

    def test_non_callable_attributes_not_exposed(self, exported):
        _p, _c, _m, _ref, proxy_in = exported
        with pytest.raises(AttributeError, match="method-only"):
            proxy_in.value  # a field, not a method

    def test_missing_names_raise(self, exported):
        _p, _c, _m, _ref, proxy_in = exported
        with pytest.raises(AttributeError):
            proxy_in.no_such_method()

    def test_repr(self, exported):
        _p, _c, _m, _ref, proxy_in = exported
        assert "Counter" in repr(proxy_in)


class TestIdentity:
    def test_proxy_in_is_exported_under_the_master_oid(self, exported):
        provider, _c, master, ref, _proxy_in = exported
        assert ref == RemoteRef(provider.name, obi_id_of(master), "ICounter")
        # Exporting again, or naming it, hands back the same reference.
        assert provider.export(master) == ref
        assert provider.naming.lookup("counter") == ref

    def test_guarded_proxy_in_is_exported_under_the_master_oid(self, zsites):
        provider, _consumer = zsites
        master = Counter(1)
        ref = provider.export_guarded(master, AccessPolicy(default_allow=True))
        assert ref.object_id == obi_id_of(master)
        assert provider.has_exported(obi_id_of(master))
