"""Tests for invoke_async / InvokeFuture: settled when it returns."""

import pytest

from repro.rmi.endpoint import RmiEndpoint
from repro.simnet.loopback import LoopbackNetwork
from repro.util.errors import RemoteError


class Counter:
    def __init__(self):
        self.n = 0

    def bump(self, k):
        self.n += k
        return self.n

    def fail(self):
        raise ValueError("nope")


@pytest.fixture
def loopback_endpoints():
    network = LoopbackNetwork()
    server = RmiEndpoint(network, "server")
    client = RmiEndpoint(network, "client")
    yield server, client
    network.close()


class TestSyncSettled:
    """The future settles before ``invoke_async`` returns."""

    def test_result_matches_invoke(self, loopback_endpoints):
        server, client = loopback_endpoints
        ref = server.export(Counter())
        future = client.invoke_async(ref, "bump", (3,))
        assert future.done()
        assert future.result() == 3

    def test_remote_failure_reraised_at_result(self, loopback_endpoints):
        server, client = loopback_endpoints
        ref = server.export(Counter())
        future = client.invoke_async(ref, "fail")
        with pytest.raises((ValueError, RemoteError)):
            future.result()

    def test_local_ref_dispatches_immediately(self, loopback_endpoints):
        server, _client = loopback_endpoints
        ref = server.export(Counter())
        future = server.invoke_async(ref, "bump", (2,))
        assert future.done()
        assert future.result() == 2

    def test_settled_future_cannot_be_cancelled(self, loopback_endpoints):
        server, client = loopback_endpoints
        ref = server.export(Counter())
        future = client.invoke_async(ref, "bump", (1,))
        assert future.cancel() is False
        assert future.result() == 1

    def test_repr_names_method_and_site(self, loopback_endpoints):
        server, client = loopback_endpoints
        ref = server.export(Counter())
        future = client.invoke_async(ref, "bump", (1,))
        assert "bump" in repr(future)
        assert "'server'" in repr(future)
        assert future.result() == 1
