"""Swizzle hooks: reference ↔ proxy-out descriptor conversion.

"Swizzling" is the classic object-faulting term (Hosking & Moss; White &
DeWitt — both cited by the paper) for converting between direct references
and fault-detecting placeholders.  In OBIWAN, when a master object is
replicated, each reference it holds to a not-yet-replicated neighbour is
replaced by a *proxy-out* at the destination.

The serializer stays agnostic of the replication layer: the encoder asks a
:class:`Swizzler` whether a value should travel as a
:class:`SwizzleDescriptor` instead of by state, and the decoder hands every
descriptor to an :class:`Unswizzler` to materialize whatever the layer
above wants (for `repro.core`, a proxy-out instance).  Without hooks
nothing is swizzled, and a descriptor decodes as itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol


@dataclass(frozen=True, slots=True)
class SwizzleDescriptor:
    """A placeholder that travels instead of an object's state.

    ``kind`` names the descriptor family (e.g. ``"proxy-out"``,
    ``"remote-ref"``) and ``data`` is any serializable value the layer above
    needs to rebuild the placeholder on the receiving site.
    """

    kind: str
    data: object


class Swizzler(Protocol):
    """Encoder-side hook."""

    def swizzle(self, value: object) -> SwizzleDescriptor | None:
        """Return a descriptor to send instead of ``value``, or ``None``
        to serialize ``value`` normally.  Asked once per container or
        object, never about a descriptor's own data."""


class Unswizzler(Protocol):
    """Decoder-side hook."""

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:
        """Materialize the local stand-in for ``descriptor``."""
