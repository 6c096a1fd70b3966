"""Tests for the localhost TCP transport."""

import os
import resource
import socket
import struct
import threading
import time

import pytest

from repro.simnet.tcp import MAX_FRAME_BYTES, TcpNetwork
from repro.util.clock import WallClock
from repro.util.errors import DisconnectedError, TransportError


@pytest.fixture
def net():
    network = TcpNetwork(WallClock())
    yield network
    network.close()


def _echo(message):
    return b"echo:" + message.payload


class TestBasics:
    def test_request_response_over_sockets(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.call("a", "b", b"hello") == b"echo:hello"

    def test_large_payload_roundtrip(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        blob = bytes(range(256)) * 4096  # 1 MiB
        assert net.call("a", "b", blob) == b"echo:" + blob

    def test_binary_safety(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: m.payload[::-1])
        payload = b"\x00\x01\xff\xfe\n\r\0"
        assert net.call("a", "b", payload) == payload[::-1]

    def test_each_site_gets_a_port(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.port_of("a") != net.port_of("b")
        with pytest.raises(TransportError):
            net.port_of("ghost")

    def test_many_sequential_calls(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        for index in range(50):
            payload = f"m{index}".encode()
            assert net.call("a", "b", payload) == b"echo:" + payload

    def test_cast_delivered(self, net):
        received = []
        done = threading.Event()

        def on_cast(message):
            received.append(message.payload)
            done.set()

        net.attach("a", lambda m: None)
        net.attach("b", on_cast)
        net.cast("a", "b", b"fire")
        assert done.wait(2.0)
        assert received == [b"fire"]


class TestFailureModes:
    def test_handler_exception_reported(self, net):
        net.attach("a", lambda m: None)

        def bad(message):
            raise ValueError("remote bug")

        net.attach("b", bad)
        with pytest.raises(TransportError, match="remote bug"):
            net.call("a", "b", b"x")

    def test_handler_none_response_is_error(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        with pytest.raises(TransportError, match="no response"):
            net.call("a", "b", b"x")

    def test_timeout_when_handler_hangs(self, net):
        net.attach("a", lambda m: None)
        release = threading.Event()
        net.attach("b", lambda m: release.wait(5) and b"")
        try:
            with pytest.raises(TransportError, match="timed out"):
                net.call("a", "b", b"x", timeout=0.1)
        finally:
            release.set()

    def test_close_unblocks_waiters(self, net):
        net.attach("a", lambda m: None)
        release = threading.Event()
        net.attach("b", lambda m: release.wait(5) and b"")
        failure: list[Exception] = []

        def caller():
            try:
                net.call("a", "b", b"x", timeout=4)
            except TransportError as exc:
                failure.append(exc)

        thread = threading.Thread(target=caller)
        thread.start()
        time.sleep(0.05)
        net.close()
        thread.join(timeout=2)
        release.set()
        assert not thread.is_alive()
        assert failure

    def test_detached_site_unreachable(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.detach("b")
        with pytest.raises(TransportError):
            net.call("a", "b", b"x")

    def test_logical_disconnection_enforced(self, net):
        """A 'mobile' site refuses traffic even though the socket works."""
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.disconnect("b", voluntary=True)
        with pytest.raises(DisconnectedError):
            net.call("a", "b", b"x")
        net.reconnect("b")
        assert net.call("a", "b", b"y") == b"echo:y"

    def test_pooled_connection_reused_across_calls(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        for i in range(4):
            assert net.call("a", "b", b"ping%d" % i) == b"echo:ping%d" % i
        assert net.pool_stats.total_created == 1
        assert net.pool_stats.total_reused == 3
        assert net.pool_stats.reused_from("a") == 3
        assert net.pool_stats.reused_from("b") == 0

    def test_reconnect_after_peer_detach_and_reattach(self, net):
        """Pooled sockets to a detached peer are dropped; a re-attached
        peer (new port) is reachable again through a fresh connection."""
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.call("a", "b", b"one") == b"echo:one"
        net.detach("b")
        with pytest.raises(TransportError):
            net.call("a", "b", b"gone")
        net.attach("b", _echo)
        assert net.call("a", "b", b"two") == b"echo:two"
        # Both successful calls opened fresh sockets: the pooled one from
        # before the detach must not have been reused against the new port.
        assert net.pool_stats.total_created == 2

    def test_stale_pooled_socket_retried_transparently(self, net):
        """A pooled connection the server side has since closed must not
        surface as an error: the caller retries on a fresh socket."""
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.call("a", "b", b"one") == b"echo:one"
        # Kill the pooled socket behind the pool's back.
        with net._pool_lock:
            [pooled] = net._pool[("a", "b")]
        pooled.close()
        assert net.call("a", "b", b"two") == b"echo:two"

    def test_concurrent_clients(self, net):
        net.attach("server", _echo)
        results = {}
        errors = []

        def client(name):
            try:
                net.attach(name, lambda m: None)
                results[name] = net.call(name, "server", name.encode())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 6


class TestConcurrency:
    def test_parallel_callers(self, net):
        """Handlers run on serving threads, one per connection, so slow
        handlers for different callers overlap."""
        calls = []

        def slowish(message):
            time.sleep(0.01)
            calls.append(message.payload)
            return message.payload.upper()

        net.attach("server", slowish)
        results: dict[str, bytes] = {}
        errors: list[Exception] = []

        def client(name: str):
            try:
                net.attach(name, lambda m: None)
                results[name] = net.call(name, "server", name.encode())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == {f"c{i}": f"c{i}".upper().encode() for i in range(8)}

    def test_reentrant_call_from_handler(self, net):
        """b's handler calls c while serving a — must not deadlock."""
        net.attach("a", lambda m: None)
        net.attach("c", _echo)

        def relay(message):
            inner = net.call("b", "c", b"inner:" + message.payload)
            return b"relay:" + inner

        net.attach("b", relay)
        assert net.call("a", "b", b"x") == b"relay:echo:inner:x"
        assert net.call("a", "b", b"y") == b"relay:echo:inner:y"


class TestSubmit:
    """``submit`` never raises: every failure settles the reply."""

    def test_reply_is_settled_on_return(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        reply = net.submit("a", "b", b"x")
        assert reply.done()
        assert reply.result() == b"echo:x"

    def test_partition_fails_the_reply(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.partition({"a"}, {"b"})
        reply = net.submit("a", "b", b"x")
        with pytest.raises(DisconnectedError, match="partition"):
            reply.result(1.0)
        net.heal()
        assert net.submit("a", "b", b"y").result(5.0) == b"echo:y"

    def test_unknown_site_fails_the_reply(self, net):
        net.attach("a", lambda m: None)
        with pytest.raises(TransportError, match="no site 'ghost'"):
            net.submit("a", "ghost", b"x").result(1.0)

    def test_closed_network_fails_the_reply(self):
        net = TcpNetwork(WallClock())
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.close()
        with pytest.raises(TransportError, match="closed"):
            net.submit("a", "b", b"x").result(1.0)


#: A frame header (kind, payload length) and its three string lengths.
_HEADER = struct.Struct("!B I")
_LENGTHS = struct.Struct("!HHH")


def _frame(
    kind_code: int, rid: bytes = b"", src: bytes = b"", dst: bytes = b"", payload_len: int = 0
) -> bytes:
    """A frame's header and strings; ``payload_len`` is declared, not sent."""
    header = _HEADER.pack(kind_code, payload_len)
    return header + _LENGTHS.pack(len(rid), len(src), len(dst)) + rid + src + dst


def _closed_by_peer(sock: socket.socket) -> bool:
    """True once the peer closed ``sock`` (a close with unread bytes
    arrives as a reset)."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestMalformedFrames:
    def test_server_drops_a_malformed_frame_and_keeps_serving(self, net, monkeypatch):
        crashed = []
        monkeypatch.setattr(threading, "excepthook", lambda args: crashed.append(args.exc_type))
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        for bad in (_frame(9), _frame(1, src=b"\xff\xfe")):  # unknown kind; not UTF-8
            with socket.create_connection(("127.0.0.1", net.port_of("b")), timeout=5) as raw:
                raw.sendall(bad)
                assert _closed_by_peer(raw)
        for thread in threading.enumerate():
            if thread.name == "tcp-conn-b":
                thread.join(5.0)
                assert not thread.is_alive()
        assert crashed == []
        assert net.call("a", "b", b"still") == b"echo:still"

    def test_server_drops_a_frame_declaring_an_oversized_payload(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        declared = 2**32 - 1  # 4 GiB: the largest length the header holds
        assert declared > MAX_FRAME_BYTES
        bad = _frame(1, rid=b"r1", src=b"a", dst=b"b", payload_len=declared)
        with socket.create_connection(("127.0.0.1", net.port_of("b")), timeout=5) as raw:
            raw.sendall(bad + b"x" * 64)
            assert _closed_by_peer(raw)
        assert net.call("a", "b", b"still") == b"echo:still"

    def test_client_gets_transport_error_and_discards_the_socket(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        rogue = socket.create_server(("127.0.0.1", 0))
        peer_closed = threading.Event()

        def answer_with_kind_9():
            conn, _addr = rogue.accept()
            with conn:
                conn.recv(4096)  # the request
                conn.sendall(_frame(9))
                if _closed_by_peer(conn):
                    peer_closed.set()

        server = threading.Thread(target=answer_with_kind_9, daemon=True)
        server.start()
        net._ports["b"] = rogue.getsockname()[1]  # "b" now answers from the rogue
        try:
            with pytest.raises(TransportError, match="unknown kind code 9"):
                net.call("a", "b", b"x")
            server.join(5.0)
            assert not server.is_alive()
            assert peer_closed.is_set()  # the client closed the socket...
            assert not net._pool.get(("a", "b"))  # ...and pooled nothing
        finally:
            rogue.close()


#: Descriptors held open before the pool is exercised: enough to push
#: every socket the test creates past ``select``'s 1024-fd ceiling.
_HIGH_FD_FILLER = 1100


@pytest.fixture
def high_fds():
    """Hold ``_HIGH_FD_FILLER`` extra descriptors for the test's
    duration, raising the soft ``RLIMIT_NOFILE`` if needed."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    needed = _HIGH_FD_FILLER + 256
    if hard != resource.RLIM_INFINITY and hard < needed:
        pytest.skip(f"hard RLIMIT_NOFILE {hard} < {needed}")
    if soft != resource.RLIM_INFINITY and soft < needed:
        resource.setrlimit(resource.RLIMIT_NOFILE, (needed, hard))
    filler = []
    try:
        for _ in range(_HIGH_FD_FILLER):
            filler.append(os.open(os.devnull, os.O_RDONLY))
        yield
    finally:
        for fd in filler:
            os.close(fd)
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))


class TestHighDescriptors:
    def test_pool_reuses_sockets_numbered_past_1024(self, high_fds):
        net = TcpNetwork(WallClock())
        try:
            net.attach("a", lambda m: None)
            net.attach("b", _echo)
            for index in range(20):
                assert net.call("a", "b", b"%d" % index) == b"echo:%d" % index
            [pooled] = net._pool[("a", "b")]
            assert pooled.fileno() >= 1024
            assert net.pool_stats.total_created == 1
            assert net.pool_stats.total_reused == 19
        finally:
            net.close()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestShutdownRaces:
    def test_accept_thread_joined_on_detach(self):
        net = TcpNetwork(WallClock())
        try:
            net.attach("a", _echo)
            thread = net._accept_threads["a"]
            assert thread.is_alive()
            net.detach("a")
            assert not thread.is_alive()
            assert "a" not in net._accept_threads
        finally:
            net.close()

    def test_release_refuses_stale_incarnation(self):
        """A socket checked out while its peer detaches and re-attaches
        (new port) must not be pooled on release — it points at a listener
        that no longer exists."""
        net = TcpNetwork(WallClock())
        try:
            net.attach("a", lambda m: None)
            net.attach("b", _echo)
            sock, _reused = net._acquire("a", "b")
            net.detach("b")
            net.attach("b", _echo)  # new incarnation, new port
            net._release("a", "b", sock)
            with net._pool_lock:
                assert not net._pool.get(("a", "b"))
            # A call still works: it opens a fresh socket to the new port.
            assert net.call("a", "b", b"hi") == b"echo:hi"
        finally:
            net.close()

    def test_close_under_load_leaks_no_fds(self):
        """Hammer a network with calls while detaching sites, then close;
        every socket and accept thread must be reclaimed."""
        baseline = _open_fds()
        stop = threading.Event()
        for _round in range(3):
            net = TcpNetwork(WallClock())
            net.attach("server", _echo)
            errors = []

            def client(name, network=net):
                network.attach(name, lambda m: None)
                while not stop.is_set():
                    try:
                        network.call(name, "server", b"x", timeout=2.0)
                    except TransportError:
                        return  # server detached/closed under us: expected

            threads = [
                threading.Thread(target=client, args=(f"c{i}",), daemon=True)
                for i in range(4)
            ]
            for t in threads:
                t.start()
            # Let some traffic flow, then tear down mid-flight.
            deadline = 50
            while net.pool_stats.total_created + net.pool_stats.total_reused < 8:
                deadline -= 1
                if deadline <= 0:
                    break
                threading.Event().wait(0.01)
            net.detach("server")
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
            net.close()
            stop.clear()
            assert not errors
            accept_threads = [
                t
                for t in threading.enumerate()
                if t.name.startswith("tcp-") and not t.name.startswith("tcp-conn-")
            ]
            assert not accept_threads
        # Allow a little slack for interpreter-internal fds, but pooled
        # sockets and listeners (dozens across three rounds) must be gone.
        assert _open_fds() <= baseline + 3
