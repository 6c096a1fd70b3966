"""Deterministic state fingerprints.

:class:`Fingerprinter` digests an object's own state.  References to
other OBIWAN nodes (objects and proxy-outs) hash as their *logical
identity*, not their state, so a master and a faithful replica produce
the same fingerprint even though one holds direct references and the
other holds proxy-outs.  Convergence checks compare these digests across
sites (a feed primary and its followers, a master and its replicas).

Layering note: this module sits above the raw encoder (it understands
OBIWAN node identity) but below :mod:`repro.core.replication`; it is
deliberately *not* re-exported from ``repro.serial.__init__`` to keep
``repro.core.interfaces → repro.serial.registry`` import-cycle-free.
"""

from __future__ import annotations

import hashlib

from repro.core.meta import is_obiwan, obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.serial.encoder import Encoder
from repro.serial.registry import TypeRegistry
from repro.serial.swizzle import SwizzleDescriptor
from repro.util.errors import SerializationError

#: Swizzle kind used inside fingerprint frames: a node's logical identity.
FP_REF_KIND = "obiwan.fp-ref"


class _FingerprintSwizzler:
    """Encoder hook that collapses OBIWAN nodes to their logical ids.

    A replica and its master agree on object *identities* but not on
    representation (one side may hold a proxy-out where the other holds
    the object).  Hashing identities makes fingerprints comparable
    across sites; a node's own state divergence is caught by that
    node's *own* fingerprint.
    """

    def swizzle(self, value: object) -> SwizzleDescriptor | None:
        if isinstance(value, ProxyOutBase):
            return SwizzleDescriptor(FP_REF_KIND, value._obi_target_id)
        if is_obiwan(value):
            return SwizzleDescriptor(FP_REF_KIND, obi_id_of(value))
        return None

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:  # pragma: no cover
        raise SerializationError("fingerprint frames are never decoded")


class Fingerprinter:
    """Pooled, deterministic state-digest machine (one per site).

    The underlying :class:`Encoder` is stateless across frames, so a
    single instance serves every fingerprint a site computes (the PR-2
    pooling pattern) and is safe under concurrent dispatcher threads.
    """

    __slots__ = ("_encoder",)

    def __init__(self, registry: TypeRegistry | None = None):
        self._encoder = Encoder(registry, _FingerprintSwizzler())

    def of_state(self, state: dict[str, object]) -> str:
        """Digest of a state dict, independent of key insertion order."""
        frame = self._encoder.encode(sorted(state.items()))
        return hashlib.blake2b(frame, digest_size=16).hexdigest()

    def of_object(self, obj: object) -> str:
        """Digest of one object's own state (references by identity)."""
        return self.of_state(vars(obj))

    def of_value(self, value: object) -> str:
        """Digest of a single value."""
        frame = self._encoder.encode(value)
        return hashlib.blake2b(frame, digest_size=16).hexdigest()
