"""Exception hierarchy for the OBIWAN reproduction.

All library exceptions derive from :class:`ObiwanError` so applications can
catch middleware failures with a single ``except`` clause, mirroring how the
Java prototype funnels failures through ``RemoteException`` subtypes.

The hierarchy distinguishes the layers:

* transport-level problems (:class:`TransportError`, :class:`DisconnectedError`)
* invocation-level problems (:class:`RemoteError`, :class:`NameNotFoundError`)
* replication-level problems (:class:`ReplicationError` and friends)
* consistency/transaction problems (:class:`ConsistencyError`,
  :class:`TransactionAborted`)
"""

from __future__ import annotations


class ObiwanError(Exception):
    """Base class for every error raised by the OBIWAN reproduction."""


class TransportError(ObiwanError):
    """A message could not be delivered by the network substrate."""


class DisconnectedError(TransportError):
    """The destination site is unreachable (partition or disconnection).

    The paper's motivating scenario: in mobile wide-area networks this is a
    frequent, expected condition rather than a fatal failure.  The mobility
    layer catches this error to fall back on local replicas.
    """

    def __init__(self, message: str = "site is disconnected", *, voluntary: bool | None = None):
        super().__init__(message)
        #: ``True`` if the disconnection was requested by the user (e.g. to
        #: save connection cost), ``False`` if caused by the environment,
        #: ``None`` if unknown at the failure point.
        self.voluntary = voluntary


class ProtocolError(ObiwanError):
    """A malformed or unexpected message reached an endpoint."""


class SerializationError(ObiwanError):
    """An object graph could not be encoded or decoded."""


class RemoteError(ObiwanError):
    """A remote invocation failed at the remote site.

    Wraps the remote exception's type name and message, like Java RMI wraps
    server-side throwables.  The original traceback text is preserved in
    :attr:`remote_traceback` for diagnosis.
    """

    def __init__(self, message: str, *, remote_type: str = "", remote_traceback: str = ""):
        super().__init__(message)
        self.remote_type = remote_type
        self.remote_traceback = remote_traceback


class NameNotFoundError(ObiwanError):
    """A name-server lookup failed."""


class ReplicationError(ObiwanError):
    """The replication engine could not create or refresh a replica."""


class TruncatedFrameError(SerializationError, ReplicationError):
    """A wire frame ended before its own structure said it would.

    Raised by the decoder (reflective and compiled paths alike) whenever a
    read runs past the end of the buffer — a short TCP read, a sliced
    payload, or a sender that crashed mid-encode.  Derives from both
    :class:`SerializationError` (existing decode-failure handlers keep
    working) and :class:`ReplicationError` (the replication engine treats
    a truncated replica frame as a failed refresh, not a codec bug).

    :attr:`offset` is where the read started, :attr:`wanted` how many
    bytes the frame structure asked for, :attr:`available` how many were
    left.
    """

    def __init__(self, message: str, *, offset: int = 0, wanted: int = 0, available: int = 0):
        super().__init__(message)
        self.offset = offset
        self.wanted = wanted
        self.available = available


class UnknownWireTagError(SerializationError):
    """The decoder met a tag byte outside the tag table.

    Raised instead of silently misparsing: either the peer speaks a newer
    protocol (a tag this build does not know), or the stream is corrupt.
    :attr:`tag` carries the offending byte for diagnosis.
    """

    def __init__(self, message: str, *, tag: int = -1):
        super().__init__(message)
        self.tag = tag


class UnknownReplicaError(ReplicationError):
    """A protocol message referenced an object id unknown at this site.

    Raised when a ``put`` targets an object that is not
    mastered at the receiving site, or when a version map returned by a
    master omits an object the consumer wrote back.  Subclasses
    :class:`ReplicationError` so existing handlers keep working; exists as
    its own type because the condition is usually a deployment bug (stale
    reference, dropped master) rather than a transient failure.
    """


class FeedError(ReplicationError):
    """A change-feed operation failed (see :mod:`repro.feed`).

    Covers role mismatches (events sent to a site with no follower role),
    subscriptions against peers that do not speak the feed protocol, and
    write-throughs that could not be confirmed.
    """


class StaleEpochError(FeedError):
    """A feed frame carried an epoch older than the receiver's.

    After a failover promotion the group's epoch advances; a deposed
    primary that keeps pushing is rejected with this error so split-brain
    writes cannot land.  :attr:`frame_epoch` is what the frame carried,
    :attr:`current_epoch` what the receiver is on.
    """

    def __init__(self, message: str, *, frame_epoch: int = 0, current_epoch: int = 0):
        super().__init__(message)
        self.frame_epoch = frame_epoch
        self.current_epoch = current_epoch


class ObjectFaultError(ReplicationError):
    """An object fault could not be resolved.

    Raised when a proxy-out's ``demand`` cannot reach its provider, e.g.
    while disconnected with no hoarded replica available.
    """


class EncapsulationError(ObiwanError):
    """Direct state access attempted on a proxy-out.

    The paper (Section 2.1) requires objects behind proxies to be
    manipulated only through interface methods — the same restriction as
    ActiveX components and Java Beans.  Attribute access on a proxy-out has
    no meaning before the target is replicated, so we fail loudly.
    """


class ClusterError(ReplicationError):
    """A cluster replication request was invalid (bad depth, empty set, ...)."""


class ConsistencyError(ObiwanError):
    """A consistency protocol detected a violation it cannot resolve."""


class StaleReplicaError(ConsistencyError):
    """An operation required a fresh replica but the replica is stale.

    Raised by lease- and invalidation-based protocols when an invalidated or
    expired replica is used in a context that demands freshness.
    """


class SecurityError(ObiwanError):
    """A remote caller was denied access to an exported object.

    Raised by access guards (``repro.rmi.acl``) when the calling site is
    not allowed to invoke a method; crosses the wire losslessly so the
    caller sees the denial as a denial, not a generic remote failure.
    """


class TransactionAborted(ObiwanError):
    """A relaxed mobile transaction failed validation at commit time."""

    def __init__(self, message: str, *, conflicts: tuple = ()):  # type: ignore[type-arg]
        super().__init__(message)
        #: The conflicting (object id, expected version, actual version)
        #: triples discovered during validation.
        self.conflicts = tuple(conflicts)
