"""Peer-capability negotiation: probe once, remember, downgrade.

Every wire-protocol extension since the seed negotiates the same way —
optimistically use the new verb or frame against a peer, and if the
failure *shape* says "this peer predates the extension", remember that
per provider site and fall back to the legacy path forever after.  This
module is the single shared implementation of that
try/classify/remember dance and its cache.

A :class:`Capability` bundles what makes each extension's probe distinct:
the exception types a probe may legitimately raise, and the predicate
that separates "unsupported peer" from a genuine failure.  The
:class:`PeerCapabilities` cache holds every capability verdict for every
peer site under one lock, and :func:`probe` runs one negotiated attempt,
returning the :data:`UNSUPPORTED` sentinel (after caching the verdict)
when the peer lacks the capability.

One more negotiation — prefetch — is probe-free by design (the widened
mode tuple travels only when set, so pre-prefetch peers never see it) and
needs no entry here; OBI305 machine-checks that its guard discipline
stays that way.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

from repro.util.errors import ProtocolError, RemoteError

T = TypeVar("T")


class _Unsupported:
    """Singleton sentinel distinguishing "peer lacks it" from any result."""

    _instance: "_Unsupported | None" = None

    def __new__(cls) -> "_Unsupported":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<UNSUPPORTED>"

    def __bool__(self) -> bool:
        return False


#: Returned by :func:`probe` when the peer predates the capability.
UNSUPPORTED = _Unsupported()


@dataclass(frozen=True)
class Capability:
    """One negotiated protocol extension.

    ``probe_errors`` are the exception types a probe attempt may raise
    *at all* without being re-raised immediately; ``unsupported`` then
    decides whether a caught exception means "peer predates this" (cache
    and downgrade) or a genuine failure (re-raise).
    """

    name: str
    probe_errors: tuple[type[BaseException], ...]
    unsupported: Callable[[BaseException], bool]


class PeerCapabilities:
    """Per-provider-site capability verdicts, one lock, one table.

    Verdicts are negative-only: a site is assumed to support every
    capability until a probe proves otherwise.  That matches the wire
    design — extensions are built so that the *first* use against an old
    peer fails loudly with a classifiable shape, never corrupts state —
    and means an upgraded peer is picked up by simply never having been
    marked (or after :meth:`forget`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._unsupported: dict[str, set[str]] = {}

    @staticmethod
    def _key(capability: "Capability | str") -> str:
        return capability.name if isinstance(capability, Capability) else capability

    def assume(self, site_id: str, capability: "Capability | str") -> bool:
        """True unless ``site_id`` already failed this capability's probe."""
        key = self._key(capability)
        with self._lock:
            return key not in self._unsupported.get(site_id, ())

    def mark_unsupported(self, site_id: str, capability: "Capability | str") -> None:
        with self._lock:
            self._unsupported.setdefault(site_id, set()).add(self._key(capability))

    def forget(self, site_id: str) -> None:
        """Drop every verdict for ``site_id`` (e.g. the peer was upgraded)."""
        with self._lock:
            self._unsupported.pop(site_id, None)

    def snapshot(self) -> dict[str, frozenset[str]]:
        """Immutable copy of the verdict table, for telemetry and tests."""
        with self._lock:
            return {site: frozenset(caps) for site, caps in self._unsupported.items()}


def probe(
    caps: PeerCapabilities,
    site_id: str,
    capability: Capability,
    attempt: Callable[[], T],
) -> "T | _Unsupported":
    """Run one negotiated ``attempt`` against a peer.

    Returns the attempt's result, or :data:`UNSUPPORTED` — with the
    verdict cached so the caller's *next* call skips the probe — when the
    failure shape says the peer predates the capability.  Any other
    exception propagates untouched.
    """
    try:
        return attempt()
    except capability.probe_errors as exc:
        if not capability.unsupported(exc):
            raise
        caps.mark_unsupported(site_id, capability)
        return UNSUPPORTED


# ----------------------------------------------------------------------
# the shipped capabilities
# ----------------------------------------------------------------------
def _delta_unsupported(exc: BaseException) -> bool:
    """True when a delta-verb failure means "this peer predates delta sync".

    An unversioned peer's skeleton reports the missing verb as a
    :class:`ProtocolError` ("has no method"); a peer whose handler probes
    attributes may flatten an ``AttributeError`` into a
    :class:`RemoteError` instead.  Anything else is a genuine failure and
    must propagate.
    """
    if isinstance(exc, ProtocolError):
        return "has no method" in str(exc)
    if isinstance(exc, RemoteError):
        return exc.remote_type == "AttributeError"
    return False


#: PR 4's delta verbs: ``put_delta`` / ``get_delta`` against a peer whose
#: skeleton predates them.
DELTA_SYNC = Capability(
    name="delta_sync",
    probe_errors=(ProtocolError, RemoteError),
    unsupported=_delta_unsupported,
)


def _feed_unsupported(exc: BaseException) -> bool:
    """True when a feed-verb failure means "this peer predates obifeed".

    A pre-feed peer never exported the well-known feed service object, so
    its skeleton answers ``no exported object 'obj:feed'``; a peer that
    exports something under the id but lacks the verb reports ``has no
    method``.  Either shape may arrive as a local :class:`ProtocolError`
    (reconstructed by the RMI layer) or flattened into a
    :class:`RemoteError`.  Anything else is a genuine failure.
    """
    message = str(exc)
    shapes = ("no exported object", "has no method")
    if isinstance(exc, ProtocolError):
        return any(shape in message for shape in shapes)
    if isinstance(exc, RemoteError) and exc.remote_type == "ProtocolError":
        return any(shape in message for shape in shapes)
    return False


#: PR 10's change-feed verbs (``feed_subscribe`` / ``feed_events`` /
#: ``feed_snapshot`` / ``promote``) against a peer that never exported
#: the feed service.
FEED = Capability(
    name="feed",
    probe_errors=(ProtocolError, RemoteError),
    unsupported=_feed_unsupported,
)


def _pipelined_unsupported(exc: BaseException) -> bool:  # pragma: no cover
    """The pipelining probe never classifies by exception shape."""
    return False


#: PR 9's pipelined correlation-ID framing (obireactor).  Unlike delta
#: sync, this extension cannot probe by failure shape: a frame kind
#: an old peer has never heard of does not produce a classifiable error —
#: it kills the peer's connection-serving thread outright.  The reactor
#: therefore negotiates *in band*: the first exchange to a peer is a
#: fully legacy frame whose request id carries a reversible marker that
#: an upgraded server rewrites in its echo, and a legacy server returns
#: untouched.  This :class:`Capability` exists as the cache key for that
#: verdict in :class:`PeerCapabilities` (``probe_errors`` is empty — the
#: marker probe never raises a capability-classifiable error).
PIPELINED_FRAMES = Capability(
    name="pipelined_frames",
    probe_errors=(),
    unsupported=_pipelined_unsupported,
)
