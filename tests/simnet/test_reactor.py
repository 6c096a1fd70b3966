"""Tests for the obireactor transport: loop, pipelining, failure delivery."""

import threading
import time

import pytest

from repro.simnet.message import MessageKind
from repro.simnet.reactor import (
    _PERROR,
    _PREQUEST,
    _PRESPONSE,
    ReactorNetwork,
    _FrameParser,
    _PeerChannel,
    _pack_frame,
)
from repro.util.clock import WallClock
from repro.util.errors import DisconnectedError, TransportError


@pytest.fixture
def net():
    network = ReactorNetwork(WallClock())
    yield network
    network.close()


def _echo(message):
    return b"echo:" + message.payload


def _dead_channel(*args, **kwargs):
    raise TransportError("connection is closed")


class TestFrameParser:
    def test_single_frame(self):
        parser = _FrameParser()
        frames = parser.feed(_pack_frame(_PREQUEST, "req:1", "a", "b", b"hello"))
        assert frames == [(_PREQUEST, "req:1", "a", "b", b"hello")]

    def test_split_delivery(self):
        data = _pack_frame(_PRESPONSE, "req:2", "b", "a", b"x" * 1000)
        parser = _FrameParser()
        for i in range(0, len(data), 7):
            frames = parser.feed(data[i : i + 7])
        assert frames == [(_PRESPONSE, "req:2", "b", "a", b"x" * 1000)]

    def test_coalesced_frames(self):
        one = _pack_frame(_PREQUEST, "req:1", "a", "b", b"1")
        two = _pack_frame(_PERROR, "req:2", "a", "b", b"2")
        parser = _FrameParser()
        assert len(parser.feed(one + two)) == 2

    def test_empty_payload(self):
        parser = _FrameParser()
        [(_, rid, _, _, payload)] = parser.feed(
            _pack_frame(_PREQUEST, "req:3", "a", "b", b"")
        )
        assert rid == "req:3" and payload == b""


class TestBasics:
    def test_request_response(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.call("a", "b", b"hello") == b"echo:hello"

    def test_first_call_pipelines(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        assert net.supports_pipelining
        assert net.call("a", "b", b"first") == b"echo:first"
        assert net.reactor_stats.snapshot()["frames_pipelined"] == 1
        assert net.pool_stats.total_created == 0

    def test_every_call_shares_one_channel(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        for i in range(10):
            net.call("a", "b", b"n%d" % i)
        stats = net.reactor_stats.snapshot()
        assert stats["frames_pipelined"] == 10
        assert stats["connections_accepted"] == 1
        assert net.pool_stats.total_created == 0

    def test_large_payload_roundtrip(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        blob = bytes(range(256)) * 4096  # 1 MiB
        assert net.call("a", "b", blob) == b"echo:" + blob
        assert net.call("a", "b", blob) == b"echo:" + blob  # pipelined round

    def test_handler_exception_reported(self, net):
        net.attach("a", lambda m: None)

        def bad(message):
            raise ValueError("remote bug")

        net.attach("b", bad)
        with pytest.raises(TransportError, match="remote bug"):
            net.call("a", "b", b"x")
        # And again on the pipelined path.
        with pytest.raises(TransportError, match="remote bug"):
            net.call("a", "b", b"x")

    def test_cast_delivered(self, net):
        received = []
        done = threading.Event()

        def on_cast(message):
            if message.kind is MessageKind.CAST:
                received.append(message.payload)
                done.set()
            return b"ok"

        net.attach("a", lambda m: None)
        net.attach("b", on_cast)
        net.cast("a", "b", b"fire")
        assert done.wait(5.0)
        assert received == [b"fire"]
        assert net.pool_stats.total_created == 0

    def test_cast_retries_once_on_a_dead_channel(self, net, monkeypatch):
        done = threading.Event()

        def on_cast(message):
            if message.kind is MessageKind.CAST:
                done.set()
            return b"ok"

        net.attach("a", lambda m: None)
        net.attach("b", on_cast)
        net.call("a", "b", b"open")
        dead = net._channels[("a", "b")]
        monkeypatch.setattr(dead, "send_cast", _dead_channel)
        net.cast("a", "b", b"fire")
        assert done.wait(5.0)
        assert net._channels[("a", "b")] is not dead

    def test_nested_rmi_from_handler(self, net):
        """Dispatch runs off the loop thread, so a handler can call back
        out through the same network without deadlocking the loop."""
        net.attach("a", lambda m: None)
        net.attach("leaf", _echo)

        def relay(message):
            return net.call("relay", "leaf", message.payload)

        net.attach("relay", relay)
        assert net.call("a", "relay", b"deep") == b"echo:deep"
        # Again once every hop is pipelined.
        assert net.call("a", "relay", b"deeper") == b"echo:deeper"

    def test_detach_then_reattach(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.call("a", "b", b"one")
        net.detach("b")
        with pytest.raises(TransportError):
            net.call("a", "b", b"gone")
        net.attach("b", _echo)
        assert net.call("a", "b", b"two") == b"echo:two"


class TestPipelinedSemantics:
    def test_out_of_order_completion(self, net):
        """A slow request must not hold back later requests on the same
        channel; replies complete in server finish order, matched by id."""
        release = threading.Event()

        def handler(message):
            if message.payload == b"slow":
                release.wait(10.0)
            return b"done:" + message.payload

        net.attach("a", lambda m: None)
        net.attach("b", handler)
        slow = net.submit("a", "b", b"slow")
        fast = net.submit("a", "b", b"fast")
        assert fast.result(5.0) == b"done:fast"
        assert not slow.done()
        release.set()
        assert slow.result(5.0) == b"done:slow"

    def test_timeout_poisons_only_its_own_request(self, net):
        release = threading.Event()

        def handler(message):
            if message.payload == b"stuck":
                release.wait(10.0)
            return message.payload

        net.attach("a", lambda m: None)
        net.attach("b", handler)
        stuck = net.submit("a", "b", b"stuck")
        sibling = net.submit("a", "b", b"sibling")
        with pytest.raises(TransportError, match="timed out"):
            stuck.result(0.2)
        # The sibling on the same channel is unharmed...
        assert sibling.result(5.0) == b"sibling"
        # ...and so is the channel itself: new requests still flow, and
        # the stuck request's straggling response is dropped silently.
        release.set()
        assert net.submit("a", "b", b"after").result(5.0) == b"after"

    def test_cancellation_mid_flight(self, net):
        release = threading.Event()

        def handler(message):
            release.wait(10.0)
            return message.payload

        net.attach("a", lambda m: None)
        net.attach("b", handler)
        release.set()
        net.call("a", "b", b"warm")
        release.clear()
        doomed = net.submit("a", "b", b"doomed")
        witness = net.submit("a", "b", b"witness")
        assert doomed.cancel()
        with pytest.raises(TransportError, match="cancelled"):
            doomed.result(1.0)
        release.set()
        assert witness.result(5.0) == b"witness"
        # Cancelling a settled reply is a no-op.
        assert not witness.cancel()

    def test_channel_failure_fails_all_pending(self, net):
        hold = threading.Event()

        def handler(message):
            hold.wait(10.0)
            return message.payload

        net.attach("a", lambda m: None)
        net.attach("b", handler)
        hold.set()
        net.call("a", "b", b"warm")
        hold.clear()
        pendings = [net.submit("a", "b", b"p%d" % i) for i in range(4)]
        net.detach("b")  # tears the channel down under the pending requests
        hold.set()
        for pending in pendings:
            with pytest.raises(TransportError):
                pending.result(5.0)

    def test_many_in_flight_on_one_connection(self, net):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.call("a", "b", b"open")  # the first call opens the channel
        before = net.reactor_stats.snapshot()["connections_accepted"]
        replies = [net.submit("a", "b", b"n%d" % i) for i in range(200)]
        for i, reply in enumerate(replies):
            assert reply.result(10.0) == b"echo:n%d" % i
        stats = net.reactor_stats.snapshot()
        # All 200 shared the already-accepted channel: no new connections.
        assert stats["connections_accepted"] == before
        assert stats["frames_pipelined"] >= 200


class TestSubmitFailures:
    """``submit`` never raises: every failure settles the reply."""

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
        net = ReactorNetwork(WallClock())
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.close()
        with pytest.raises(TransportError, match="closed"):
            net.submit("a", "b", b"x").result(1.0)

    def test_second_dead_channel_fails_the_reply(self, net, monkeypatch):
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        monkeypatch.setattr(_PeerChannel, "send_request", _dead_channel)
        with pytest.raises(TransportError, match="connection is closed"):
            net.submit("a", "b", b"x").result(1.0)
        assert ("a", "b") not in net._channels


class TestBackpressure:
    def test_write_high_water_parks_writers(self):
        """Submits beyond the channel's high-water mark must park the
        caller until the loop drains — and then complete normally.

        The loop is held hostage on a posted gate so nothing can drain:
        the writer must hit the high-water mark deterministically rather
        than racing a loop that keeps getting faster."""
        net = ReactorNetwork(WallClock(), write_high_water=64 * 1024)
        try:
            net.attach("a", lambda m: None)
            net.attach("b", _echo)
            net.call("a", "b", b"warm")  # open the channel
            gate = threading.Event()
            net._loop.post(gate.wait)
            blob = b"x" * (48 * 1024)
            replies = []

            def writer():
                for _ in range(6):  # 288 KiB through a 64 KiB window
                    replies.append(net.submit("a", "b", blob))

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            for _ in range(1000):
                if net.reactor_stats.snapshot()["backpressure_waits"] >= 1:
                    break
                time.sleep(0.01)
            gate.set()
            thread.join(10.0)
            assert not thread.is_alive()
            for reply in replies:
                assert reply.result(10.0) == b"echo:" + blob
            assert net.reactor_stats.snapshot()["backpressure_waits"] >= 1
        finally:
            net.close()


class TestLifecycle:
    def test_close_stops_loop_and_workers(self):
        net = ReactorNetwork(WallClock())
        net.attach("a", lambda m: None)
        net.attach("b", _echo)
        net.call("a", "b", b"x")
        loop = net._loop
        net.close()
        assert not loop.is_alive()
        with pytest.raises(TransportError):
            net.call("a", "b", b"y")

    def test_concurrent_clients(self, net):
        net.attach("server", _echo)
        results = {}
        errors = []

        def client(name):
            try:
                net.attach(name, lambda m: None)
                for i in range(5):
                    results[(name, i)] = net.call(name, "server", name.encode())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(f"c{i}",)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 30
