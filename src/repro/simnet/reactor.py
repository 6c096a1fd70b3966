"""obireactor: single-event-loop TCP transport with frame pipelining.

``TcpNetwork`` burns one thread per server connection and allows one
in-flight frame per socket — fine for a handful of sites, fatal for the
ROADMAP's "one provider, tens of thousands of mobile consumers" target.
:class:`ReactorNetwork` replaces that with the classic reactor shape:

* **one event loop per process** owns every socket — listeners, inbound
  server connections and outbound pipelined channels — through a
  ``selectors`` poll loop plus a socketpair waker for cross-thread
  commands.  The loop never blocks on anything but the selector;
* **frame dispatch runs on a grow-on-demand worker pool**, never on the
  loop thread: handlers make nested RMI calls back through the network,
  which would deadlock a loop that dispatched inline;
* **frame pipelining**: every request — the first one to a peer
  included — travels as a ``PREQUEST`` frame on one multiplexed channel
  per ``(src, dst)`` pair, many in flight at once, correlated by the
  request id every frame already carries;
* **a sync facade**: :meth:`ReactorNetwork.call` is still blocking, so
  every existing call site works unchanged; :meth:`ReactorNetwork.submit`
  exposes the per-request :class:`~repro.simnet.network.PendingReply`
  future underneath for callers that want true fan-out.  Every failure
  of a submit — routing, a closed network, a dead channel — arrives
  through that reply, never as a synchronous raise.

Flow control
------------

Each connection carries a write-queue high-water mark.  The loop never
blocks on it — writers do: a submit against a channel whose outbound
buffer is above the mark parks the *calling* thread on the channel's
condition until the loop drains the socket.  A per-request timeout or
cancellation poisons only its own correlation id (the entry is removed
from the pending map; a straggling response is dropped on the floor);
a connection failure fails every request pending on that connection.

Loop-callback discipline is machine-checked: everything the selector
invokes directly is decorated with :func:`loop_callback`, and obilint
rule OBI401 flags blocking socket operations, ``time.sleep`` and lock
acquisition inside those bodies.  Locked bookkeeping shared with caller
threads lives in small undecorated helpers that hold their lock for a
bounded handful of operations.
"""

from __future__ import annotations

import collections
import errno
import os
import queue
import selectors
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.obs.context import annotate
from repro.simnet.message import Message, MessageKind
from repro.simnet.network import PendingReply
from repro.simnet.tcp import _HEADER, _KIND_CODES, TcpNetwork, _close_quietly
from repro.util.errors import TransportError

#: Pipelined frame kinds, numbered after the pooled TCP codec's kinds 1–4
#: so the two framings never share a code.
_PREQUEST = 5
_PRESPONSE = 6
_PERROR = 7

_CAST = _KIND_CODES[MessageKind.CAST]

T = TypeVar("T")

_META = struct.Struct("!HHH")
_RECV_CHUNK = 1 << 16

#: Default per-connection outbound high-water mark (bytes).
WRITE_HIGH_WATER = 1 << 20


def loop_callback(fn: Callable) -> Callable:
    """Mark a function as invoked directly by the reactor loop.

    The marker is what obilint rule OBI401 keys on: a decorated body must
    not sleep, perform blocking socket operations, or acquire locks —
    anything that parks the loop parks every connection in the process.
    """
    fn.__loop_callback__ = True
    return fn


def _pack_frame(kind_code: int, rid: str, src: str, dst: str, payload: bytes) -> bytes:
    rid_b = rid.encode("utf-8")
    src_b = src.encode("utf-8")
    dst_b = dst.encode("utf-8")
    return b"".join(
        (
            _HEADER.pack(kind_code, len(payload)),
            _META.pack(len(rid_b), len(src_b), len(dst_b)),
            rid_b,
            src_b,
            dst_b,
            payload,
        )
    )


class _FrameParser:
    """Incremental frame reassembly over a nonblocking byte stream."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, str, str, str, bytes]]:
        """Absorb ``data``; return every frame completed by it."""
        self._buf += data
        frames = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> tuple[int, str, str, str, bytes] | None:
        buf = self._buf
        fixed = _HEADER.size + _META.size
        if len(buf) < fixed:
            return None
        kind_code, payload_len = _HEADER.unpack_from(buf, 0)
        rid_len, src_len, dst_len = _META.unpack_from(buf, _HEADER.size)
        total = fixed + rid_len + src_len + dst_len + payload_len
        if len(buf) < total:
            return None
        offset = fixed
        rid = bytes(buf[offset : offset + rid_len]).decode("utf-8")
        offset += rid_len
        src = bytes(buf[offset : offset + src_len]).decode("utf-8")
        offset += src_len
        dst = bytes(buf[offset : offset + dst_len]).decode("utf-8")
        offset += dst_len
        payload = bytes(buf[offset : offset + payload_len])
        del buf[:total]
        return kind_code, rid, src, dst, payload


@dataclass
class ReactorStats:
    """Counters for the reactor loop, locked like ``SerialPathStats``:
    the loop thread, worker threads and caller threads all report here."""

    #: Inbound connections the loop has accepted over its lifetime.
    connections_accepted: int = 0
    #: Sockets the loop currently holds (server conns + client channels).
    connections_open: int = 0
    connections_high_water: int = 0
    #: PREQUEST frames submitted on pipelined channels.
    frames_pipelined: int = 0
    #: Deepest per-channel in-flight request count seen.
    in_flight_high_water: int = 0
    #: Submits that had to park on a channel's write high-water mark.
    backpressure_waits: int = 0
    #: Cross-thread commands the loop has processed.
    loop_wakeups: int = 0
    #: Worst observed command latency: enqueue → loop pickup, seconds.
    loop_lag_max_s: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_open(self, delta: int, *, accepted: bool = False) -> None:
        with self._lock:
            if accepted:
                self.connections_accepted += 1
            self.connections_open += delta
            if self.connections_open > self.connections_high_water:
                self.connections_high_water = self.connections_open

    def record_submit(self, in_flight: int) -> None:
        with self._lock:
            self.frames_pipelined += 1
            if in_flight > self.in_flight_high_water:
                self.in_flight_high_water = in_flight

    def record_backpressure_wait(self) -> None:
        with self._lock:
            self.backpressure_waits += 1

    def record_wakeup(self, lag_s: float) -> None:
        with self._lock:
            self.loop_wakeups += 1
            if lag_s > self.loop_lag_max_s:
                self.loop_lag_max_s = lag_s

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "connections_accepted": self.connections_accepted,
                "connections_open": self.connections_open,
                "connections_high_water": self.connections_high_water,
                "frames_pipelined": self.frames_pipelined,
                "in_flight_high_water": self.in_flight_high_water,
                "backpressure_waits": self.backpressure_waits,
                "loop_wakeups": self.loop_wakeups,
                "loop_lag_max_s": self.loop_lag_max_s,
            }


class _DispatchPool:
    """Grow-on-demand worker pool for inbound frame dispatch.

    Handlers issue nested RMI calls back out through the network, so
    dispatch must never run on the loop thread — a handler waiting for a
    response the loop would have delivered is a deadlock.  Workers spawn
    when a job arrives and nobody is idle (up to ``max_threads``), and
    retire after ten idle seconds.
    """

    def __init__(self, max_threads: int = 32):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._max = max_threads
        self._threads = 0
        #: Jobs submitted but not yet finished (queued + running).  The
        #: spawn rule ``threads < outstanding`` is judged entirely under
        #: the lock, so a submit can never observe a stale idle count and
        #: leave a job starving behind a blocked worker.
        self._outstanding = 0
        self._closed = False

    def submit(self, job: Callable[[], None]) -> None:
        with self._lock:
            if self._closed:
                return
            self._outstanding += 1
            spawn = self._threads < self._max and self._threads < self._outstanding
            if spawn:
                self._threads += 1
        self._jobs.put(job)
        if spawn:
            threading.Thread(
                target=self._worker, name="obireactor-dispatch", daemon=True
            ).start()

    def _worker(self) -> None:
        while True:
            try:
                job = self._jobs.get(timeout=10.0)
            except queue.Empty:
                with self._lock:
                    if self._outstanding >= self._threads:
                        continue  # work arrived as the timeout fired
                    self._threads -= 1
                    return
            if job is None:  # close() sentinel
                with self._lock:
                    self._threads -= 1
                return
            try:
                job()
            except Exception:  # noqa: BLE001 - a handler bug must not kill a worker
                pass
            finally:
                with self._lock:
                    self._outstanding -= 1

    def close(self) -> None:
        with self._lock:
            self._closed = True
            live = self._threads
        for _ in range(live):
            self._jobs.put(None)  # type: ignore[arg-type]


class _Conn:
    """Bookkeeping shared by server connections and client channels.

    The loop thread owns the socket and the selector registration; caller
    and worker threads only touch the outbound queue, under ``_cond``.
    The helpers that take the lock are deliberately *not* loop callbacks:
    they hold it for a bounded handful of list operations, which is the
    discipline OBI401 enforces on the decorated entry points.
    """

    def __init__(self, loop: "_ReactorLoop", sock: socket.socket):
        self._loop = loop
        self._sock = sock
        self._parser = _FrameParser()
        self._cond = threading.Condition()
        self._out: collections.deque[bytes] = collections.deque()
        self._buffered = 0
        self._interest = selectors.EVENT_READ
        self._flush_scheduled = False
        #: True while a non-blocking connect is in flight.  Writers may
        #: enqueue freely; the loop finishes the handshake on the first
        #: EVENT_WRITE and flushes whatever accumulated.
        self.connecting = False
        self.closed = False

    # -- writer side (any thread) ---------------------------------------
    def enqueue(self, data: bytes, *, wait: bool = True) -> None:
        """Queue outbound bytes; parks the caller above the high-water
        mark until the loop drains the socket (never the loop itself)."""
        stats = self._loop.net.reactor_stats
        high_water = self._loop.net.write_high_water
        with self._cond:
            if self.closed:
                raise TransportError("connection is closed")
            while wait and self._buffered >= high_water and not self.closed:
                stats.record_backpressure_wait()
                self._cond.wait(1.0)
            if self.closed:
                raise TransportError("connection is closed")
            self._out.append(data)
            self._buffered += len(data)
        self._loop.request_flush(self)

    # -- loop side ------------------------------------------------------
    @loop_callback
    def on_events(self, mask: int) -> None:
        if self.connecting:
            if mask & selectors.EVENT_WRITE:
                self._finish_connect()
            return
        if mask & selectors.EVENT_WRITE:
            self._write_ready()
        if mask & selectors.EVENT_READ:
            self._read_ready()

    @loop_callback
    def on_flush_command(self) -> None:
        self._flush_scheduled = False
        if not self.closed and not self.connecting:
            self._write_ready()

    def _finish_connect(self) -> None:
        err = self._sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self.teardown(
                TransportError(f"connect failed: {os.strerror(err)}")
            )
            return
        self.connecting = False
        self._write_ready()  # flush frames queued during the handshake

    def _write_ready(self) -> None:
        while True:
            chunk = self._peek_chunk()
            if chunk is None:
                break
            try:
                sent = self._sock.send(chunk)
            except BlockingIOError:
                break
            except OSError:
                self.teardown(TransportError("connection reset while writing"))
                return
            self._consume(sent, len(chunk))
            if sent < len(chunk):
                break
        self._update_interest()

    def _read_ready(self) -> None:
        while True:
            try:
                data = self._sock.recv(_RECV_CHUNK)
            except BlockingIOError:
                break
            except OSError:
                self.teardown(TransportError("connection reset while reading"))
                return
            if not data:
                self.teardown(TransportError("peer closed the connection"))
                return
            for frame in self._parser.feed(data):
                self._on_frame(frame)
        self._update_interest()

    def _peek_chunk(self) -> bytes | None:
        """Head of the write queue, coalescing small frames into one
        ``send`` so a burst of pipelined requests costs one syscall."""
        with self._cond:
            if not self._out:
                return None
            if len(self._out) == 1 or len(self._out[0]) >= _RECV_CHUNK:
                return self._out[0]
            batch = []
            size = 0
            while self._out and size < _RECV_CHUNK:
                chunk = self._out.popleft()
                batch.append(chunk)
                size += len(chunk)
            joined = b"".join(batch)
            self._out.appendleft(joined)
            return joined

    def _consume(self, sent: int, size: int) -> None:
        if sent == 0:
            return
        with self._cond:
            if sent == size:
                if self._out:
                    self._out.popleft()
            elif self._out:
                self._out[0] = self._out[0][sent:]
            self._buffered -= sent
            self._cond.notify_all()

    def _update_interest(self) -> None:
        if self.closed or self.connecting:
            return
        with self._cond:
            pending = bool(self._out)
        interest = selectors.EVENT_READ | (selectors.EVENT_WRITE if pending else 0)
        if interest != self._interest:
            self._interest = interest
            self._loop.modify(self._sock, interest, self.on_events)

    def teardown(self, error: TransportError) -> None:
        """Loop-thread-only: unregister, close, release parked writers."""
        if self.closed:
            return
        self.closed = True
        self._loop.unregister(self._sock)
        _close_quietly(self._sock)
        with self._cond:
            self._out.clear()
            self._buffered = 0
            self._cond.notify_all()
        self._loop.net.reactor_stats.record_open(-1)
        self._on_teardown(error)

    # Subclass hooks ----------------------------------------------------
    def _on_frame(self, frame: tuple[int, str, str, str, bytes]) -> None:
        raise NotImplementedError

    def _on_teardown(self, error: TransportError) -> None:
        pass


class _ServerConn(_Conn):
    """One inbound connection: pipelined requests and casts."""

    def __init__(self, loop: "_ReactorLoop", site_id: str, sock: socket.socket):
        super().__init__(loop, sock)
        self.site_id = site_id

    def _on_frame(self, frame: tuple[int, str, str, str, bytes]) -> None:
        kind_code, rid, src, dst, payload = frame
        net = self._loop.net
        handler = net._handlers.get(dst)
        if kind_code == _CAST:
            if handler is not None:
                net.dispatch_pool.submit(
                    lambda: _run_cast(handler, rid, src, dst, payload)
                )
            return
        if kind_code != _PREQUEST:
            # A frame kind this server does not speak: drop the
            # connection rather than guess at its semantics.
            self.teardown(TransportError(f"unknown frame kind {kind_code}"))
            return
        if handler is None:
            self.enqueue(
                _pack_frame(
                    _PERROR,
                    rid,
                    dst,
                    src,
                    f"no site {dst!r} attached to this network".encode("utf-8"),
                ),
                wait=False,
            )
            return
        net.dispatch_pool.submit(
            lambda: self._run_request(handler, rid, src, dst, payload)
        )

    def _run_request(
        self,
        handler: Callable[[Message], bytes | None],
        rid: str,
        src: str,
        dst: str,
        payload: bytes,
    ) -> None:
        """Worker-thread dispatch of one request frame."""
        message = Message(
            kind=MessageKind.REQUEST, src=src, dst=dst, payload=payload, request_id=rid
        )
        try:
            result = handler(message)
            ok = result is not None
            body = result if result is not None else b"handler returned no response"
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            ok = False
            body = repr(exc).encode("utf-8")
        code = _PRESPONSE if ok else _PERROR
        try:
            self.enqueue(_pack_frame(code, rid, dst, src, body))
        except TransportError:  # obilint: disable=OBI107 -- the consumer's own pending-reply bookkeeping reports the dead connection; the server has nobody left to tell
            pass


def _run_cast(
    handler: Callable[[Message], bytes | None],
    rid: str,
    src: str,
    dst: str,
    payload: bytes,
) -> None:
    message = Message(
        kind=MessageKind.CAST, src=src, dst=dst, payload=payload, request_id=rid
    )
    try:
        handler(message)
    except Exception:  # noqa: BLE001 - one-way, nothing to report to
        pass


class _PeerChannel(_Conn):
    """One outbound multiplexed connection ``src -> dst``.

    Caller threads register a :class:`PendingReply` per request and
    append the frame to the write queue; the loop completes replies as
    correlated responses arrive, in whatever order the peer finishes.
    """

    def __init__(
        self, loop: "_ReactorLoop", src: str, dst: str, sock: socket.socket
    ):
        super().__init__(loop, sock)
        self.src = src
        self.dst = dst
        self.failed: TransportError | None = None
        self._pending: dict[str, PendingReply] = {}

    # -- caller side ----------------------------------------------------
    def send_request(self, request: Message, reply: PendingReply) -> int:
        """Queue one pipelined request; returns the in-flight depth."""
        data = _pack_frame(
            _PREQUEST, request.request_id, request.src, request.dst, request.payload
        )
        with self._cond:
            if self.closed:
                raise self.failed or TransportError("channel is closed")
            self._pending[request.request_id] = reply
            in_flight = len(self._pending)
        try:
            self.enqueue(data)
        except TransportError:
            self.forget(reply)
            raise
        return in_flight

    def send_cast(self, message: Message) -> None:
        self.enqueue(
            _pack_frame(
                _CAST, message.request_id, message.src, message.dst, message.payload
            )
        )

    def forget(self, reply: PendingReply) -> None:
        """Poison one correlation id (timeout/cancel): its straggling
        response, if any, is dropped; siblings are untouched."""
        with self._cond:
            self._pending.pop(reply.request_id, None)

    # -- loop side ------------------------------------------------------
    def _on_frame(self, frame: tuple[int, str, str, str, bytes]) -> None:
        kind_code, rid, _src, _dst, payload = frame
        with self._cond:
            reply = self._pending.pop(rid, None)
        if reply is None:
            return  # cancelled or timed out; drop the straggler
        if kind_code == _PRESPONSE:
            reply.complete(payload)
        elif kind_code == _PERROR:
            reply.fail(
                TransportError(
                    f"remote handler at {self.dst!r} failed: "
                    f"{payload.decode('utf-8', 'replace')}"
                )
            )
        else:
            reply.fail(
                TransportError(
                    f"unexpected frame kind {kind_code} on pipelined channel"
                )
            )

    def _on_teardown(self, error: TransportError) -> None:
        failure = TransportError(
            f"pipelined channel {self.src!r}->{self.dst!r} failed: {error}"
        )
        with self._cond:
            self.failed = failure
            pending = list(self._pending.values())
            self._pending.clear()
        for reply in pending:
            reply.fail(failure)
        self._loop.net._discard_channel(self)


class _ReactorLoop(threading.Thread):
    """The event loop: one selector, one waker, every socket."""

    def __init__(self, net: "ReactorNetwork"):
        super().__init__(name="obireactor-loop", daemon=True)
        self.net = net
        self._selector = selectors.DefaultSelector()
        self._commands: collections.deque = collections.deque()
        self._cmd_lock = threading.Lock()
        wake_r, wake_w = socket.socketpair()
        wake_r.setblocking(False)
        wake_w.setblocking(False)
        self._wake_r = wake_r
        self._wake_w = wake_w
        self._selector.register(wake_r, selectors.EVENT_READ, self._on_wake)
        #: Wake coalescing: once armed, further posts skip the socketpair
        #: write.  Arming (in ``post``) and disarming (in
        #: ``_take_commands``) both happen under ``_cmd_lock``, so a post
        #: that lands mid-drain either makes this round or re-arms with a
        #: fresh byte for the next.  Disarming outside the lock loses
        #: wakeups: a post between the disarm and the drain gets its byte
        #: eaten and its arm flag left set, and every later post then
        #: skips the wake it actually needs.
        self._wake_armed = False
        self._running = True

    # -- cross-thread interface -----------------------------------------
    def post(self, command: Callable[[], None]) -> None:
        """Enqueue a command for the loop thread and wake it."""
        with self._cmd_lock:
            self._commands.append((self.net.clock.now(), command))
            need_wake = not self._wake_armed
            self._wake_armed = True
        if need_wake:
            self.wake()

    def post_and_wait(self, command: Callable[[], None], timeout: float = 5.0) -> None:
        """Run ``command`` on the loop thread and wait for it.

        Falls back to running inline when called *from* the loop thread
        (no deadlock) or after the loop has exited (shutdown stragglers).
        """
        if threading.current_thread() is self or not self.is_alive():
            command()
            return
        done = threading.Event()

        def run() -> None:
            try:
                command()
            finally:
                done.set()

        self.post(run)
        done.wait(timeout)

    def request_flush(self, conn: _Conn) -> None:
        """Ask the loop to drain ``conn``'s write queue.  The scheduled
        flag is a benign race: a stale read costs one redundant command,
        never a lost flush (the post below always follows the append)."""
        if conn._flush_scheduled:
            return
        conn._flush_scheduled = True
        self.post(conn.on_flush_command)

    def wake(self) -> None:
        try:
            self._wake_w.send(b"\x00")
        except (BlockingIOError, OSError):
            pass  # waker full or closed: the loop is waking up anyway

    def stop(self) -> None:
        self._running = False
        self.wake()
        if self.is_alive():
            self.join(timeout=5.0)

    # -- loop-thread-only selector access -------------------------------
    def register(self, sock: socket.socket, events: int, callback: Callable) -> None:
        try:
            self._selector.register(sock, events, callback)
        except (KeyError, ValueError, OSError):
            pass

    def modify(self, sock: socket.socket, events: int, callback: Callable) -> None:
        try:
            self._selector.modify(sock, events, callback)
        except (KeyError, ValueError, OSError):
            pass

    def unregister(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError, OSError):
            pass

    # -- the loop -------------------------------------------------------
    def run(self) -> None:
        while self._running:
            events = self._selector.select(timeout=0.2)
            for key, mask in events:
                key.data(mask)
            if self._commands:  # obilint: disable=OBI203 -- deliberately unlocked peek: a stale read only delays the drain one 200ms tick; this is the backstop that makes a lost wakeup cost latency instead of a deadlock
                self._run_commands()
        for key in list(self._selector.get_map().values()):
            self.unregister(key.fileobj)  # type: ignore[arg-type]
            _close_quietly(key.fileobj)  # type: ignore[arg-type]
        _close_quietly(self._wake_w)
        self._selector.close()

    @loop_callback
    def _on_wake(self, mask: int) -> None:
        self._drain_waker()
        self._run_commands()

    def _run_commands(self) -> None:
        while True:
            commands = self._take_commands()
            if not commands:
                return
            for enqueued_at, command in commands:
                self.net.reactor_stats.record_wakeup(
                    max(0.0, self.net.clock.now() - enqueued_at)
                )
                try:
                    command()
                except Exception:  # noqa: BLE001 - a bad command must not kill the loop
                    pass

    def _drain_waker(self) -> None:
        while True:
            try:
                if not self._wake_r.recv(4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _take_commands(self) -> list[tuple[float, Callable[[], None]]]:
        """Take the queued commands; disarm only on an empty take.

        Leaving the armed flag up across a non-empty take lets every post
        that lands while the loop is busy running commands skip the waker
        syscall entirely — ``_run_commands`` keeps re-taking until it sees
        the empty (and therefore disarming) take, so nothing is stranded.
        """
        with self._cmd_lock:
            commands = list(self._commands)
            self._commands.clear()
            if not commands:
                self._wake_armed = False
        return commands


class ReactorNetwork(TcpNetwork):
    """Single-event-loop TCP transport; every request is pipelined.

    Subclasses :class:`TcpNetwork` for its port directory and lifecycle
    plumbing; the inherited pooled blocking client goes unused.
    """

    supports_pipelining = True

    def __init__(
        self,
        *args: object,
        timeout: float = 30.0,
        max_dispatch_threads: int = 32,
        write_high_water: int = WRITE_HIGH_WATER,
        **kwargs: object,
    ):
        super().__init__(*args, timeout=timeout, **kwargs)
        self.reactor_stats = ReactorStats()
        self.write_high_water = write_high_water
        self.dispatch_pool = _DispatchPool(max_dispatch_threads)
        self._channels: dict[tuple[str, str], _PeerChannel] = {}
        self._channels_lock = threading.Lock()
        self._loop = _ReactorLoop(self)
        self._loop.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_attach(self, site_id: str) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        server.listen(1024)
        server.setblocking(False)
        self._servers[site_id] = server
        self._ports[site_id] = server.getsockname()[1]
        self._loop.post(lambda: self._register_listener(site_id, server))

    def _register_listener(self, site_id: str, server: socket.socket) -> None:
        @loop_callback
        def on_accept(mask: int) -> None:
            self._accept_ready(site_id, server)

        self._loop.register(server, selectors.EVENT_READ, on_accept)

    def _accept_ready(self, site_id: str, server: socket.socket) -> None:
        while True:
            try:
                sock, _addr = server.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _ServerConn(self._loop, site_id, sock)
            self._loop.register(sock, selectors.EVENT_READ, conn.on_events)
            self.reactor_stats.record_open(+1, accepted=True)

    def _on_detach(self, site_id: str) -> None:
        server = self._servers.pop(site_id, None)
        self._ports.pop(site_id, None)
        if server is not None:
            self._loop.post_and_wait(lambda: self._close_site(site_id, server))
        with self._channels_lock:
            doomed = [
                channel
                for (src, dst), channel in self._channels.items()
                if src == site_id or dst == site_id
            ]
        for channel in doomed:
            failure = TransportError(f"site {site_id!r} detached")
            self._loop.post_and_wait(lambda ch=channel: ch.teardown(failure))

    def _close_site(self, site_id: str, server: socket.socket) -> None:
        """Loop thread: close the listener and every inbound conn."""
        self._loop.unregister(server)
        _close_quietly(server)
        for key in list(self._loop._selector.get_map().values()):
            conn = getattr(key.data, "__self__", None)
            if isinstance(conn, _ServerConn) and conn.site_id == site_id:
                conn.teardown(TransportError(f"site {site_id!r} detached"))

    def _discard_channel(self, channel: _PeerChannel) -> None:
        with self._channels_lock:
            if self._channels.get((channel.src, channel.dst)) is channel:
                del self._channels[(channel.src, channel.dst)]

    def close(self) -> None:
        super().close()  # detaches every site through _on_detach
        with self._channels_lock:
            leftovers = list(self._channels.values())
            self._channels.clear()
        for channel in leftovers:
            failure = TransportError("network is closed")
            self._loop.post_and_wait(lambda ch=channel: ch.teardown(failure))
        self._loop.stop()
        self.dispatch_pool.close()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def call(self, src: str, dst: str, payload: bytes, *, timeout: float | None = None) -> bytes:
        request = Message(kind=MessageKind.REQUEST, src=src, dst=dst, payload=payload)
        reply = self._send(request)
        response_payload = reply.result(timeout if timeout is not None else self._timeout)
        self._check_route(dst, src)
        self._transit(request.response(response_payload))
        return response_payload

    def submit(
        self, src: str, dst: str, payload: bytes, *, timeout: float | None = None
    ) -> PendingReply:
        return self._send(
            Message(kind=MessageKind.REQUEST, src=src, dst=dst, payload=payload)
        )

    def _send(self, request: Message) -> PendingReply:
        """Route, account and pipeline one request.

        Every failure — a closed network, no route, a dropped frame, a
        channel that will not take the frame — settles the returned reply
        instead of raising, which is the :meth:`Network.submit` contract
        fan-out callers rely on.
        """
        try:
            self._check_open()
            self._check_route(request.src, request.dst)
            self._transit(request)
            return self._on_channel(
                request.src, request.dst, lambda channel: self._pipeline(channel, request)
            )
        except TransportError as exc:
            failed = PendingReply(request.request_id)
            failed.fail(exc)
            return failed

    def _pipeline(self, channel: _PeerChannel, request: Message) -> PendingReply:
        reply = PendingReply(request.request_id, on_cancel=channel.forget)
        in_flight = channel.send_request(request, reply)
        self.reactor_stats.record_submit(in_flight)
        annotate(pipelined=True, in_flight=in_flight)
        return reply

    def _on_channel(
        self, src: str, dst: str, send: Callable[[_PeerChannel], T], *, retry: bool = True
    ) -> T:
        """Run ``send`` on the ``src -> dst`` channel.  A channel that
        died under us is discarded and ``send`` retried once on a fresh
        one; a second failure propagates."""
        channel = self._channel_for(src, dst)
        try:
            return send(channel)
        except TransportError:
            self._discard_channel(channel)
            if not retry:
                raise
        return self._on_channel(src, dst, send, retry=False)

    def _channel_for(self, src: str, dst: str) -> _PeerChannel:
        with self._channels_lock:
            channel = self._channels.get((src, dst))
            if channel is not None and not channel.closed:
                return channel
        # Non-blocking connect: the caller never waits on the handshake.
        # The channel is usable immediately — requests buffer in its write
        # queue and the loop flushes them when EVENT_WRITE reports the
        # connect complete (or fails every pending reply if it refused).
        port = self.port_of(dst)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rc = sock.connect_ex(("127.0.0.1", port))
        if rc not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            _close_quietly(sock)
            raise TransportError(
                f"connect {src!r}->{dst!r} failed: {os.strerror(rc)}"
            )
        fresh = _PeerChannel(self._loop, src, dst, sock)
        if rc != 0:
            fresh.connecting = True
            fresh._interest = selectors.EVENT_WRITE
        with self._channels_lock:
            existing = self._channels.get((src, dst))
            if existing is not None and not existing.closed:
                _close_quietly(sock)
                return existing
            self._channels[(src, dst)] = fresh
        self.reactor_stats.record_open(+1)
        interest = selectors.EVENT_WRITE if fresh.connecting else selectors.EVENT_READ
        self._loop.post(
            lambda: self._loop.register(sock, interest, fresh.on_events)
        )
        return fresh

    def cast(self, src: str, dst: str, payload: bytes) -> None:
        self._check_open()
        self._check_route(src, dst)
        message = Message(kind=MessageKind.CAST, src=src, dst=dst, payload=payload)
        self._transit(message)
        self._on_channel(src, dst, lambda channel: channel.send_cast(message))
