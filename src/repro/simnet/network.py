"""Abstract network and site endpoints.

A :class:`Network` connects named sites.  Each site attaches once with a
handler; the handler receives inbound :class:`~repro.simnet.message.Message`
frames and, for requests, returns the response payload.  The RMI layer
(`repro.rmi`) is the only intended client of this API — applications use
stubs and replicas, never raw frames.
"""

from __future__ import annotations

import random
import threading
from abc import ABC, abstractmethod
from collections.abc import Callable

from repro.simnet.link import LOCAL, Link
from repro.simnet.message import Message
from repro.simnet.partition import ConnectivityMap
from repro.simnet.stats import NetworkStats
from repro.util.clock import Clock, SimClock
from repro.util.errors import DisconnectedError, TransportError
from repro.util.ids import new_request_id

#: Inbound frame handler.  For ``REQUEST`` frames the return value is the
#: response payload; for ``CAST`` frames it is ignored.
Handler = Callable[[Message], bytes | None]


class PendingReply:
    """A future for one in-flight request.

    :meth:`Network.submit` returns one of these per request, and
    :meth:`result` blocks the caller until the correlated response lands
    (or the deadline passes).  Completion and cancellation race safely —
    whichever settles the reply first wins, and the loser becomes a
    no-op — so a thread completing a reply never trips over a caller
    timing it out.
    """

    def __init__(self, request_id: str):
        self.request_id = request_id
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: bytes | None = None
        self._error: BaseException | None = None
        self._cancelled = False
        self._settled = False

    # -- transport side -------------------------------------------------
    def complete(self, payload: bytes) -> bool:
        """Deliver the response payload; False if already settled."""
        with self._lock:
            if self._settled:
                return False
            self._result = payload
            self._settled = True
        self._event.set()
        return True

    def fail(self, error: BaseException) -> bool:
        """Deliver a failure; False if already settled."""
        with self._lock:
            if self._settled:
                return False
            self._error = error
            self._settled = True
        self._event.set()
        return True

    # -- caller side ----------------------------------------------------
    def cancel(self) -> bool:
        """Abandon the request.  Returns False if a response or failure
        already settled it."""
        with self._lock:
            if self._settled:
                return False
            self._cancelled = True
            self._settled = True
        self._event.set()
        return True

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    def result(self, timeout: float | None = None) -> bytes:
        """Block for the response payload.

        A timeout cancels this request (and only this request) before
        raising, so a response that straggles in later is dropped instead
        of being mismatched to a future call.
        """
        if not self._event.wait(timeout):
            if self.cancel():
                raise TransportError(
                    f"request {self.request_id} timed out after {timeout}s"
                )
        with self._lock:
            cancelled = self._cancelled
            error = self._error
            payload = self._result
        if cancelled:
            raise TransportError(f"request {self.request_id} was cancelled")
        if error is not None:
            raise error
        assert payload is not None
        return payload


class Network(ABC):
    """Base class for all transports.

    Owns the pieces every transport shares: the clock, the link table, the
    connectivity map (disconnections/partitions) and traffic statistics.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        *,
        default_link: Link = LOCAL,
        seed: int | None = None,
    ):
        self.clock: Clock = clock if clock is not None else SimClock()
        self.default_link = default_link
        self.connectivity = ConnectivityMap()
        self.stats = NetworkStats()
        self._links: dict[tuple[str, str], Link] = {}
        self._handlers: dict[str, Handler] = {}
        self._rng = random.Random(seed)
        self._closed = False

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(self, site_id: str, handler: Handler) -> "Endpoint":
        """Register ``site_id`` with its inbound-frame handler."""
        if site_id in self._handlers:
            raise ValueError(f"site {site_id!r} is already attached")
        self._handlers[site_id] = handler
        self._on_attach(site_id)
        return Endpoint(self, site_id)

    def detach(self, site_id: str) -> None:
        """Remove a site; in-flight calls to it fail."""
        self._handlers.pop(site_id, None)
        self._on_detach(site_id)

    def set_link(self, a: str, b: str, link: Link, *, symmetric: bool = True) -> None:
        """Install a link model between two sites (default: both ways)."""
        self._links[(a, b)] = link
        if symmetric:
            self._links[(b, a)] = link

    def link_for(self, src: str, dst: str) -> Link:
        return self._links.get((src, dst), self.default_link)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(self._handlers)

    # ------------------------------------------------------------------
    # convenience passthroughs to the connectivity map
    # ------------------------------------------------------------------
    def disconnect(self, site_id: str, *, voluntary: bool = False) -> None:
        self.connectivity.disconnect(site_id, voluntary=voluntary)

    def reconnect(self, site_id: str) -> None:
        self.connectivity.reconnect(site_id)

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        self.connectivity.partition(group_a, group_b)

    def heal(self) -> None:
        self.connectivity.heal()

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    @abstractmethod
    def call(self, src: str, dst: str, payload: bytes, *, timeout: float | None = None) -> bytes:
        """Send a request from ``src`` to ``dst``; return the response payload."""

    @abstractmethod
    def cast(self, src: str, dst: str, payload: bytes) -> None:
        """Send a one-way message (best effort once routing succeeds)."""

    def submit(
        self, src: str, dst: str, payload: bytes, *, timeout: float | None = None
    ) -> PendingReply:
        """Run a request and return a :class:`PendingReply` for it.

        The request runs to completion on the calling thread, so the
        reply is already settled when it is returned; a failure is
        delivered through the reply rather than raised here.
        """
        reply = PendingReply(new_request_id())
        try:
            reply.complete(self.call(src, dst, payload, timeout=timeout))
        except Exception as exc:  # noqa: BLE001 - delivered through the reply
            reply.fail(exc)
        return reply

    def close(self) -> None:
        """Shut the transport down; further traffic raises."""
        self._closed = True

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # shared plumbing for subclasses
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise TransportError("network is closed")

    def _check_route(self, src: str, dst: str) -> None:
        """Raise if a frame from ``src`` cannot currently reach ``dst``."""
        if dst not in self._handlers:
            raise TransportError(f"no site {dst!r} attached to this network")
        if not self.connectivity.can_communicate(src, dst):
            self.stats.record_rejected(src, dst)
            record = self.connectivity.blocking_disconnection(src, dst)
            if record is not None:
                raise DisconnectedError(
                    f"cannot reach {dst!r} from {src!r}: {record.site_id!r} is disconnected",
                    voluntary=record.voluntary,
                )
            raise DisconnectedError(
                f"cannot reach {dst!r} from {src!r}: network partition", voluntary=False
            )

    def _handler_for(self, site_id: str) -> Handler:
        try:
            return self._handlers[site_id]
        except KeyError:
            raise TransportError(f"no site {site_id!r} attached to this network") from None

    def _transit(self, message: Message) -> float:
        """Account one frame's traversal; return the modelled transfer time.

        Raises :class:`TransportError` if the link drops the frame.
        """
        link = self.link_for(message.src, message.dst)
        if link.drops(self._rng):
            self.stats.record_drop(message.src, message.dst)
            raise TransportError(
                f"frame {message.request_id} lost on link {link.name} "
                f"({message.src} -> {message.dst})"
            )
        seconds = link.transfer_time(message.size, self._rng)
        self.stats.record(message.src, message.dst, message.size, seconds)
        return seconds

    # Subclass hooks -----------------------------------------------------
    def _on_attach(self, site_id: str) -> None:  # pragma: no cover - default no-op
        pass

    def _on_detach(self, site_id: str) -> None:  # pragma: no cover - default no-op
        pass


class Endpoint:
    """A site's bound handle on a network."""

    def __init__(self, network: Network, site_id: str):
        self.network = network
        self.site_id = site_id

    def call(self, dst: str, payload: bytes, *, timeout: float | None = None) -> bytes:
        return self.network.call(self.site_id, dst, payload, timeout=timeout)

    def submit(self, dst: str, payload: bytes, *, timeout: float | None = None) -> PendingReply:
        return self.network.submit(self.site_id, dst, payload, timeout=timeout)

    def cast(self, dst: str, payload: bytes) -> None:
        self.network.cast(self.site_id, dst, payload)

    @property
    def clock(self) -> Clock:
        return self.network.clock

    def __repr__(self) -> str:
        return f"Endpoint({self.site_id!r} on {type(self.network).__name__})"
