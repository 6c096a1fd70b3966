"""Localhost TCP transport with connection pooling.

The closest analogue of the paper's RMI-over-Ethernet deployment: frames
really cross the operating system's socket layer.  Each attached site
binds a listening socket on ``127.0.0.1``; callers keep persistent
per-``(src, dst)`` connections in a pool, so repeated RPCs measure
protocol cost rather than TCP handshakes.  Server connections serve
frames until the peer closes.

Pool behaviour:

* a call acquires an idle pooled connection (health-checked: an idle
  socket that turns readable has been closed or reset by the peer and is
  discarded) or opens a fresh one;
* a call that fails on a *reused* connection retries once on a fresh
  connection — the peer may have restarted since the socket was pooled;
* detaching a site closes every pooled connection from or to it, and the
  pool refuses to retain connections to detached sites *or to a stale
  incarnation of a re-attached site* (a released socket is pooled only if
  it still points at the port the site currently listens on), so
  reconnecting peers (new port) are picked up transparently;
* reuse/creation counts are recorded in :class:`PoolStats` —
  ``connections_reused`` in site telemetry comes from here.

The in-process :class:`~repro.simnet.network.Network` object doubles as
the port directory, which keeps the transport self-contained for tests
and examples.  Connectivity (disconnections, partitions) is still
enforced — a "disconnected" mobile site refuses traffic even though the
socket would physically work.
"""

from __future__ import annotations

import select
import socket
import struct
import threading
from dataclasses import dataclass, field

from repro.obs.context import annotate
from repro.simnet.message import Message, MessageKind
from repro.simnet.network import Network
from repro.util.errors import TransportError

_HEADER = struct.Struct("!B I")  # kind, payload length
_KIND_CODES = {
    MessageKind.REQUEST: 1,
    MessageKind.RESPONSE: 2,
    MessageKind.CAST: 3,
    MessageKind.ERROR: 4,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

#: Idle connections kept per (src, dst) pair; extras are closed on release.
POOL_SIZE_PER_PAIR = 8

#: Largest payload a frame may declare; a larger one is malformed and
#: dropped before any of it is read (the length field allows 4 GiB).
MAX_FRAME_BYTES = 256 * 1024 * 1024


def _send_frame(sock: socket.socket, message: Message) -> None:
    rid = message.request_id.encode("utf-8")
    src = message.src.encode("utf-8")
    dst = message.dst.encode("utf-8")
    header = _HEADER.pack(_KIND_CODES[message.kind], len(message.payload))
    meta = struct.pack("!HHH", len(rid), len(src), len(dst))
    sock.sendall(header + meta + rid + src + dst + message.payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Message:
    """Read one frame; a malformed one raises :class:`ConnectionError`,
    which both readers already handle by dropping the connection."""
    kind_code, payload_len = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise ConnectionError(f"malformed frame: unknown kind code {kind_code}")
    if payload_len > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"malformed frame: payload of {payload_len} bytes exceeds {MAX_FRAME_BYTES}"
        )
    rid_len, src_len, dst_len = struct.unpack("!HHH", _recv_exact(sock, 6))
    try:
        rid = _recv_exact(sock, rid_len).decode("utf-8")
        src = _recv_exact(sock, src_len).decode("utf-8")
        dst = _recv_exact(sock, dst_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConnectionError(f"malformed frame header: {exc}") from exc
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return Message(kind=kind, src=src, dst=dst, payload=payload, request_id=rid)


@dataclass
class _PairPoolStats:
    """Connection accounting for one ordered site pair."""

    created: int = 0
    reused: int = 0


@dataclass
class PoolStats:
    """Aggregated connection-pool counters for a whole TCP network."""

    per_pair: dict[tuple[str, str], _PairPoolStats] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def pair(self, src: str, dst: str) -> _PairPoolStats:
        with self._lock:
            return self.per_pair.setdefault((src, dst), _PairPoolStats())

    def record_created(self, src: str, dst: str) -> None:
        # The bump must happen under the same lock that guards the table:
        # incrementing the pair returned by ``pair()`` would race once the
        # lock is released (+= is a read-modify-write).  ``pair()`` cannot
        # be reused here — the lock is not reentrant.
        with self._lock:
            self.per_pair.setdefault((src, dst), _PairPoolStats()).created += 1

    def record_reused(self, src: str, dst: str) -> None:
        with self._lock:
            self.per_pair.setdefault((src, dst), _PairPoolStats()).reused += 1

    @property
    def total_created(self) -> int:
        with self._lock:
            return sum(s.created for s in self.per_pair.values())

    @property
    def total_reused(self) -> int:
        with self._lock:
            return sum(s.reused for s in self.per_pair.values())

    def reused_from(self, site_id: str) -> int:
        """Connections reused with ``site_id`` as the caller."""
        with self._lock:
            return sum(s.reused for (src, _dst), s in self.per_pair.items() if src == site_id)


class TcpNetwork(Network):
    """Length-prefixed frames over pooled localhost TCP connections."""

    def __init__(self, *args: object, timeout: float = 30.0, **kwargs: object):
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._timeout = timeout
        self._ports: dict[str, int] = {}
        self._servers: dict[str, socket.socket] = {}
        self._accept_threads: dict[str, threading.Thread] = {}
        self._pool: dict[tuple[str, str], list[socket.socket]] = {}
        self._pool_lock = threading.Lock()
        #: Live server-side connections per serving site, so detach/close
        #: can reclaim their file descriptors instead of waiting for the
        #: client pool to notice the peer went away.
        self._server_conns: dict[str, set[socket.socket]] = {}
        self._conns_lock = threading.Lock()
        self.pool_stats = PoolStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _on_attach(self, site_id: str) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind(("127.0.0.1", 0))
        # A deep backlog: the accept loop spawns a thread per connection
        # and falls behind a connect storm easily; with the old backlog of
        # 16 the kernel RSTs handshakes it cannot queue.
        server.listen(1024)
        self._servers[site_id] = server
        self._ports[site_id] = server.getsockname()[1]
        thread = threading.Thread(
            target=self._accept_loop, args=(site_id, server), name=f"tcp-{site_id}", daemon=True
        )
        self._accept_threads[site_id] = thread
        thread.start()

    def _on_detach(self, site_id: str) -> None:
        server = self._servers.pop(site_id, None)
        if server is not None:
            # shutdown() is what actually wakes the accept loop: on Linux a
            # bare close() leaves a thread blocked in accept() parked
            # forever (the join below would then stall for its full
            # timeout on every detach).
            try:
                server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                server.close()
            except OSError:
                pass
        self._ports.pop(site_id, None)
        thread = self._accept_threads.pop(site_id, None)
        if thread is not None and thread is not threading.current_thread():
            # The accept loop exits as soon as accept() raises on the closed
            # server socket; joining here keeps detach/close from leaving a
            # thread racing a re-attach of the same site id.
            thread.join(timeout=5.0)
        with self._conns_lock:
            conns = list(self._server_conns.pop(site_id, ()))
        for conn in conns:
            # shutdown() wakes a serving thread blocked in recv (plain
            # close would leave it parked on the old fd); close then
            # releases the descriptor immediately.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            _close_quietly(conn)
        self._drop_pooled(site_id)

    def close(self) -> None:
        super().close()
        for site_id in list(self._servers):
            self._on_detach(site_id)
        with self._pool_lock:
            leftovers = [sock for bucket in self._pool.values() for sock in bucket]
            self._pool.clear()
        for sock in leftovers:
            _close_quietly(sock)

    def port_of(self, site_id: str) -> int:
        """The TCP port a site listens on (useful for diagnostics)."""
        try:
            return self._ports[site_id]
        except KeyError:
            raise TransportError(f"no site {site_id!r} attached to this network") from None

    # ------------------------------------------------------------------
    # connection pool
    # ------------------------------------------------------------------
    def _acquire(self, src: str, dst: str) -> tuple[socket.socket, bool]:
        """An exclusive connection ``src -> dst``: pooled if healthy, else fresh."""
        stale: list[socket.socket] = []
        acquired: socket.socket | None = None
        with self._pool_lock:
            bucket = self._pool.get((src, dst))
            while bucket:
                sock = bucket.pop()
                if _idle_socket_alive(sock):
                    acquired = sock
                    break
                stale.append(sock)
        for sock in stale:
            _close_quietly(sock)
        if acquired is not None:
            self.pool_stats.record_reused(src, dst)
            return acquired, True
        fresh = socket.create_connection(("127.0.0.1", self.port_of(dst)), timeout=self._timeout)
        self.pool_stats.record_created(src, dst)
        return fresh, False

    def _release(self, src: str, dst: str, sock: socket.socket) -> None:
        """Return a connection to the pool (or close it if the pool is full,
        the network is closed, the destination has detached, or the socket
        points at a stale incarnation of the destination).

        The port comparison closes a leak window where ``_drop_pooled``
        races an in-flight ``_exchange``: the exchange's socket is checked
        out when the drop runs, and without the check it would be pooled
        on release even though it targets a listener that no longer exists
        (or a previous incarnation of a re-attached site).
        """
        try:
            peer_port = sock.getpeername()[1]
        except OSError:
            peer_port = None
        with self._pool_lock:
            if (
                not self._closed
                and peer_port is not None
                and self._ports.get(dst) == peer_port
            ):
                bucket = self._pool.setdefault((src, dst), [])
                if len(bucket) < POOL_SIZE_PER_PAIR:
                    bucket.append(sock)
                    return
        _close_quietly(sock)

    def _drop_pooled(self, site_id: str) -> None:
        """Close every pooled connection from or to ``site_id``."""
        with self._pool_lock:
            doomed: list[socket.socket] = []
            for (src, dst) in list(self._pool):
                if src == site_id or dst == site_id:
                    doomed.extend(self._pool.pop((src, dst)))
        for sock in doomed:
            _close_quietly(sock)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def call(self, src: str, dst: str, payload: bytes, *, timeout: float | None = None) -> bytes:
        self._check_open()
        self._check_route(src, dst)
        request = Message(kind=MessageKind.REQUEST, src=src, dst=dst, payload=payload)
        self._transit(request)  # accounting only; the wire provides real delay
        response = self._exchange(src, dst, request, timeout=timeout)
        self._check_route(dst, src)
        self._transit(request.response(response.payload))
        if response.kind is MessageKind.ERROR:
            raise TransportError(
                f"remote handler at {dst!r} failed: {response.payload.decode('utf-8', 'replace')}"
            )
        return response.payload

    def _exchange(
        self, src: str, dst: str, request: Message, *, timeout: float | None
    ) -> Message:
        """Send one request over a pooled connection and read its response.

        A failure on a *reused* connection retries once on a fresh one:
        the pooled socket may have gone stale while idle (peer restarted,
        connection reset) without the health check noticing in time.
        """
        for attempt in (0, 1):
            try:
                sock, reused = self._acquire(src, dst)
            except (OSError, ConnectionError) as exc:
                raise TransportError(f"tcp call {src!r}->{dst!r} failed: {exc}") from exc
            # Tag the enclosing rmi.invoke span (if any) with connection
            # attribution: a fresh connect on the fault path shows up as
            # tcp_reused=False right where the latency went.
            annotate(tcp_reused=reused, tcp_attempts=attempt + 1)
            try:
                if timeout is not None:
                    sock.settimeout(timeout)
                _send_frame(sock, request)
                response = _recv_frame(sock)
            except (OSError, ConnectionError) as exc:
                _close_quietly(sock)
                if reused and attempt == 0:
                    continue
                raise TransportError(f"tcp call {src!r}->{dst!r} failed: {exc}") from exc
            if timeout is not None:
                sock.settimeout(self._timeout)
            self._release(src, dst, sock)
            return response
        raise TransportError(f"tcp call {src!r}->{dst!r} failed")  # pragma: no cover

    def cast(self, src: str, dst: str, payload: bytes) -> None:
        self._check_open()
        self._check_route(src, dst)
        message = Message(kind=MessageKind.CAST, src=src, dst=dst, payload=payload)
        self._transit(message)
        for attempt in (0, 1):
            try:
                sock, reused = self._acquire(src, dst)
            except (OSError, ConnectionError) as exc:
                raise TransportError(f"tcp cast {src!r}->{dst!r} failed: {exc}") from exc
            annotate(tcp_reused=reused, tcp_attempts=attempt + 1)
            try:
                _send_frame(sock, message)
            except (OSError, ConnectionError) as exc:
                _close_quietly(sock)
                if reused and attempt == 0:
                    continue
                raise TransportError(f"tcp cast {src!r}->{dst!r} failed: {exc}") from exc
            self._release(src, dst, sock)
            return

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def _accept_loop(self, site_id: str, server: socket.socket) -> None:
        while True:
            try:
                conn, _addr = server.accept()
            except OSError:
                return  # server socket closed
            with self._conns_lock:
                self._server_conns.setdefault(site_id, set()).add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(site_id, conn),
                name=f"tcp-conn-{site_id}",
                daemon=True,
            ).start()

    def _serve_connection(self, site_id: str, conn: socket.socket) -> None:
        """Serve frames on one persistent connection until the peer closes."""
        try:
            with conn:
                self._serve_frames(site_id, conn)
        finally:
            with self._conns_lock:
                bucket = self._server_conns.get(site_id)
                if bucket is not None:
                    bucket.discard(conn)

    def _serve_frames(self, site_id: str, conn: socket.socket) -> None:
        while True:
            try:
                message = _recv_frame(conn)
            except (OSError, ConnectionError):
                return
            handler = self._handlers.get(site_id)
            if handler is None:
                return
            if message.kind is MessageKind.CAST:
                try:
                    handler(message)
                except Exception:  # noqa: BLE001 - one-way, nothing to report to
                    pass
                continue
            try:
                result = handler(message)
                if result is None:
                    reply = message.error(b"handler returned no response")
                else:
                    reply = message.response(result)
            except Exception as exc:  # noqa: BLE001 - reported to the caller
                reply = message.error(repr(exc).encode("utf-8"))
            try:
                _send_frame(conn, reply)
            except (OSError, ConnectionError):
                return


def _idle_socket_alive(sock: socket.socket) -> bool:
    """Health-check a pooled connection.

    An idle pooled socket should have nothing to read; readability means
    the peer closed it (EOF) or reset it while it sat in the pool.
    ``poll`` rather than ``select``: ``select`` rejects descriptors at or
    above ``FD_SETSIZE`` (1024), which would condemn every pooled socket
    of a process holding that many files.
    """
    poller = select.poll()
    try:
        poller.register(sock, select.POLLIN)
        return not poller.poll(0)
    except (OSError, ValueError):
        return False


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
