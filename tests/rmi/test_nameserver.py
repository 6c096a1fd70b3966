"""Tests for the name server (direct and via RMI)."""

import pytest

from repro.rmi.endpoint import RmiEndpoint
from repro.rmi.nameserver import NameServer
from repro.rmi.refs import RemoteRef
from repro.simnet.loopback import LoopbackNetwork
from repro.util.errors import NameNotFoundError, ProtocolError


@pytest.fixture
def server():
    return NameServer()


REF = RemoteRef("s2", "obj:1", "IThing")
REF2 = RemoteRef("s2", "obj:2", "IThing")


class TestDirect:
    def test_bind_lookup(self, server):
        server.bind("a", REF)
        assert server.lookup("a") == REF

    def test_bind_existing_rejected(self, server):
        server.bind("a", REF)
        with pytest.raises(ProtocolError):
            server.bind("a", REF2)

    def test_rebind_replaces(self, server):
        server.bind("a", REF)
        server.rebind("a", REF2)
        assert server.lookup("a") == REF2

    def test_lookup_missing(self, server):
        with pytest.raises(NameNotFoundError):
            server.lookup("ghost")

    def test_unbind(self, server):
        server.bind("a", REF)
        server.unbind("a")
        with pytest.raises(NameNotFoundError):
            server.lookup("a")

    def test_unbind_missing(self, server):
        with pytest.raises(NameNotFoundError):
            server.unbind("ghost")

    def test_bindings_sorted_by_name(self, server):
        server.bind("zeta", REF)
        server.bind("alpha", REF2)
        assert list(server.bindings().items()) == [("alpha", REF2), ("zeta", REF)]

    def test_bindings_is_a_copy(self, server):
        server.bind("a", REF)
        server.bindings()["b"] = REF2
        assert server.bindings() == {"a": REF}


class TestOverRmi:
    def test_remote_naming_operations(self):
        network = LoopbackNetwork()
        host = RmiEndpoint(network, "ns-host")
        host.host_nameserver()
        client = RmiEndpoint(network, "client", nameserver_site="ns-host")

        client.naming.bind("service", REF)
        assert client.naming.lookup("service") == REF
        assert host.naming.lookup("service") == REF  # host sees it too
        assert client.naming.bindings() == {"service": REF}

        with pytest.raises(NameNotFoundError):
            client.naming.lookup("ghost")

    def test_client_without_nameserver_site_fails(self):
        network = LoopbackNetwork()
        client = RmiEndpoint(network, "lonely")
        with pytest.raises(ProtocolError):
            _ = client.naming
