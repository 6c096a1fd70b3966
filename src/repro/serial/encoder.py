"""Wire-format encoder.

A compact, deterministic tagged binary format.  Sharing and cycles are
preserved through a memo table: the second time a container or object is
reached it is emitted as a back-reference, so a graph decodes with the
same aliasing structure it had at the sender — essential for
``updateMember`` reference splicing to behave like the Java prototype.

Wire grammar (one tag byte, then type-specific body)::

    NONE FALSE TRUE                         (no body)
    INT      <u8 len> <signed big-endian>
    FLOAT    <8-byte IEEE 754>
    STR      <u32 len> <utf-8>
    BYTES    <u32 len> <raw>
    BYTEARRAY <u32 len> <raw>               (identity-memoized, mutable)
    LIST/TUPLE/SET/FROZENSET  <u32 count> <items>
    DICT     <u32 count> <key value>*
    SWIZZLED <str kind> <data value>
    REF      <u32 memo index>
    OBJECT_SCHEMA <str name> [<u32 schema hash>] <compiled body>
    OBJECT   <str name> <state value>

Every registered class with a schema travels as ``OBJECT_SCHEMA``
(:mod:`repro.serial.compiled` — positional fields, no names);
``OBJECT`` is what is left for state no schema describes: custom
``__getstate__`` or registration hooks, and a live instance whose shape
drifted from its class's schema.
"""

from __future__ import annotations

import struct
import sys

from repro.serial import tags
from repro.serial.registry import TypeRegistry, global_registry
from repro.serial.swizzle import Swizzler
from repro.util.clock import perf_ns
from repro.util.errors import SerializationError

_TAG_U32 = struct.Struct("!BI").pack
_TAG_F64 = struct.Struct("!Bd").pack

#: The whole frame of every one-byte integer, pre-encoded.
_SMALL_INTS = {
    value: bytes([tags.INT, 1]) + value.to_bytes(1, "big", signed=True)
    for value in range(-128, 128)
}


class Encoder:
    """Encodes Python values into the wire format.

    One encoder is reusable and may be shared between threads: each
    :meth:`encode` call is an independent frame whose whole state (output
    buffer, memo table, counters) lives in the call.
    """

    def __init__(
        self,
        registry: TypeRegistry | None = None,
        swizzler: Swizzler | None = None,
        *,
        max_depth: int = 50_000,
        stats: object | None = None,
    ):
        self.registry = registry if registry is not None else global_registry
        self.swizzler = swizzler
        self.max_depth = max_depth
        self.stats = stats

    def encode(self, value: object) -> bytes:
        stats = self.stats
        start = perf_ns() if stats is not None else 0
        frame = _Frame(self)
        try:
            frame.write(value, 0)
        finally:
            if frame.guard is not None:
                frame.guard.disarm()
        data = bytes(frame.out)
        if stats is not None:
            stats.add(
                frames_encoded=1,
                encode_ns=perf_ns() - start,
                encodes_fast=frame.fast,
                encodes_reflective=frame.generic,
            )
        return data


class _Frame:
    """One encode: the output buffer, the memo, the counters.

    The memo maps ``id(obj)`` to its slot.  ``id()`` is only unique among
    *live* objects, so every memoized value is also kept alive for the
    whole frame: a freed temporary (a ``__getstate__`` tuple, say) could
    otherwise donate its id to a new object and corrupt a back-reference.
    """

    __slots__ = ("out", "slots", "keep", "entries", "registry", "swizzle", "max_depth",
                 "guard", "fast", "generic")

    def __init__(self, encoder: Encoder):
        self.out = bytearray()
        self.slots: dict[int, int] = {}
        self.keep: list[object] = []
        self.registry = encoder.registry
        self.entries = encoder.registry._by_class
        swizzler = encoder.swizzler
        self.swizzle = swizzler.swizzle if swizzler is not None else None
        self.max_depth = encoder.max_depth
        self.guard: _RecursionGuard | None = None
        self.fast = 0
        self.generic = 0

    def write(self, value: object, depth: int) -> None:
        out = self.out
        kind = type(value)
        if kind is str:
            data = value.encode("utf-8")  # type: ignore[attr-defined]
            out += _TAG_U32(tags.STR, len(data))
            out += data
            return
        if kind is int:
            small = _SMALL_INTS.get(value)  # type: ignore[call-overload]
            if small is not None:
                out += small
                return
            length = (value.bit_length() + 8) // 8  # type: ignore[attr-defined]
            if length > 255:
                raise SerializationError(f"integer too large to encode ({length} bytes)")
            out.append(tags.INT)
            out.append(length)
            out += value.to_bytes(length, "big", signed=True)  # type: ignore[attr-defined]
            return
        if value is None:
            out.append(tags.NONE)
            return
        if kind is bytes:
            out += _TAG_U32(tags.BYTES, len(value))  # type: ignore[arg-type]
            out += value  # type: ignore[arg-type]
            return
        if kind is bool:
            out.append(tags.TRUE if value else tags.FALSE)
            return
        if kind is float:
            out += _TAG_F64(tags.FLOAT, value)
            return

        # From here on values are identity-memoized (containers, objects).
        slots = self.slots
        key = id(value)
        ref = slots.get(key)
        if ref is not None:
            out += _TAG_U32(tags.REF, ref)
            return
        if depth > self.max_depth:
            raise SerializationError(
                f"object graph exceeds maximum serialization depth ({self.max_depth})"
            )
        if depth >= _LAZY_GUARD_DEPTH and self.guard is None:
            # Long linked structures (the paper's 1000-object lists) nest
            # one level per element; give the interpreter stack room —
            # lazily, so shallow frames (the RPC hot path) never pay for a
            # stack walk.
            self.guard = _RecursionGuard(self.max_depth)
        # Memoize before writing, so a cycle back to this value finds it.
        slots[key] = len(slots)
        self.keep.append(value)

        # bytearray is mutable, so unlike bytes it participates in the
        # memo: two fields aliasing one buffer decode to one buffer.
        if kind is bytearray:
            out += _TAG_U32(tags.BYTEARRAY, len(value))  # type: ignore[arg-type]
            out += value  # type: ignore[arg-type]
            return
        swizzle = self.swizzle
        if swizzle is not None:
            # The replication layer may want this reference to travel as
            # a proxy descriptor rather than by state.
            descriptor = swizzle(value)
            if descriptor is not None:
                family = descriptor.kind.encode("utf-8")
                out += _TAG_U32(tags.SWIZZLED, len(family))
                out += family
                # The descriptor is the swizzler's last word: its data
                # travels as given, without a second consultation.
                self.swizzle = None
                try:
                    self.write(descriptor.data, depth + 1)
                finally:
                    self.swizzle = swizzle
                return
        entry = self.entries.get(kind)
        if entry is not None:
            codec = entry.codec
            if codec is not None and codec.encode(value, out, self.write, depth + 1):
                self.fast += 1
                return
            # No schema, or this instance drifted from it (extra attrs,
            # polymorphic value, out-of-range int).
            self.generic += 1
            out += entry.header
            self.write(entry.get_state(value), depth + 1)
            return
        tag = _SEQUENCE_TAGS.get(kind)
        if tag is not None:
            ordered = value if tag in (tags.LIST, tags.TUPLE) else self._canonical(value)  # type: ignore[arg-type]
            out += _TAG_U32(tag, len(ordered))  # type: ignore[arg-type]
            for item in ordered:  # type: ignore[attr-defined]
                self.write(item, depth + 1)
        elif kind is dict:
            out += _TAG_U32(tags.DICT, len(value))  # type: ignore[arg-type]
            for name, item in value.items():  # type: ignore[attr-defined]
                self.write(name, depth + 1)
                self.write(item, depth + 1)
        else:
            self.registry.lookup_class(kind)  # raises: not registered

    def _canonical(self, items: set | frozenset) -> list:
        """Deterministic ordering for set elements, so equal sets encode equal.

        Mixed uncomparable types order by (typename, own wire frame): the
        element's encoding is value-derived, so two sites encode equal
        sets to equal bytes.  Only elements the serializer cannot encode
        at all fall back to ``repr``, and those could never cross the
        wire anyway.
        """
        try:
            return sorted(items)  # type: ignore[type-var]
        except TypeError:
            return sorted(items, key=self._stable_key)

    def _stable_key(self, item: object) -> tuple[str, int, object]:
        # A fresh encoder: an isolated memo and no swizzling keep the key
        # independent of this frame's state.
        try:
            frame = Encoder(self.registry).encode(item)
        except SerializationError:
            return (type(item).__name__, 1, repr(item))
        return (type(item).__name__, 0, frame)


_SEQUENCE_TAGS = {
    list: tags.LIST,
    tuple: tags.TUPLE,
    set: tags.SET,
    frozenset: tags.FROZENSET,
}


#: Serializer nesting depth at which a frame stops being "plausibly shallow"
#: and the recursion guard arms.  Default recursion limits leave thousands of
#: frames of headroom, so graphs shallower than this can never trip the
#: interpreter limit and skip the stack walk entirely.
_LAZY_GUARD_DEPTH = 64


class _RecursionGuard:
    """Raises the interpreter recursion limit for one deep frame.

    A frame builds its guard only once the serializer has actually nested
    past ``_LAZY_GUARD_DEPTH`` levels, so the full stack walk and the
    ``sys.setrecursionlimit`` call happen once per deep frame and never
    for a shallow one.  Each serializer level costs a handful of Python
    frames; budget four per level on top of whatever is in use.
    """

    __slots__ = ("_old_limit",)

    def __init__(self, levels: int) -> None:
        self._old_limit: int | None = None
        needed = _stack_depth() + 4 * min(levels, 200_000) + 100
        old = sys.getrecursionlimit()
        if needed > old:
            self._old_limit = old
            sys.setrecursionlimit(needed)

    def disarm(self) -> None:
        if self._old_limit is not None:
            sys.setrecursionlimit(self._old_limit)
            self._old_limit = None


def _stack_depth() -> int:
    """The caller's current interpreter stack depth."""
    frame = sys._getframe()
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth
