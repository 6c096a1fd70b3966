"""Wire-format decoder — the inverse of :mod:`repro.serial.encoder`.

Objects are materialized with their registered factory *before* their
state is decoded, and registered in the memo immediately, so cyclic graphs
rebuild correctly.  Swizzled descriptors are handed to the unswizzler
(the replication layer), which typically returns a freshly built
proxy-out.

Reading is offset arithmetic over the received ``bytes``: every reader
takes a position and returns ``(value, next position)``.  Slicing past
the end of ``bytes`` comes back short without complaint, so every
length-prefixed read checks its end against the frame's; fixed-width
reads go through ``struct.unpack_from``, whose ``struct.error`` on a
short buffer is translated to :class:`TruncatedFrameError` at the frame
(or, for a compiled object, at the object — so the error names the
class).  No raw ``struct.error`` / ``IndexError`` leaves :meth:`decode`.
"""

from __future__ import annotations

import struct
from functools import partial

from repro.serial import tags
from repro.serial.encoder import _LAZY_GUARD_DEPTH, _RecursionGuard
from repro.serial.registry import TypeEntry, TypeRegistry, global_registry
from repro.serial.swizzle import SwizzleDescriptor, Unswizzler
from repro.util.clock import perf_ns
from repro.util.errors import SerializationError, TruncatedFrameError, UnknownWireTagError

_U32 = struct.Struct("!I").unpack_from
_F64 = struct.Struct("!d").unpack_from


class Decoder:
    """Decodes wire frames produced by :class:`repro.serial.Encoder`.

    Like the encoder, one decoder may be shared between threads: the
    whole state of a :meth:`decode` call lives in the call.
    """

    def __init__(
        self,
        registry: TypeRegistry | None = None,
        unswizzler: Unswizzler | None = None,
        *,
        max_depth: int = 50_000,
        stats: object | None = None,
    ):
        self.registry = registry if registry is not None else global_registry
        self.unswizzler = unswizzler
        self.max_depth = max_depth
        self.stats = stats

    def decode(self, data: bytes) -> object:
        stats = self.stats
        start = perf_ns() if stats is not None else 0
        if type(data) is not bytes:
            data = bytes(data)
        frame = _Frame(self, data)
        try:
            value, pos = frame.read(0, 0)
        except struct.error as exc:
            raise TruncatedFrameError(
                f"truncated frame: {exc}", offset=len(data), wanted=1, available=0
            ) from None
        except UnicodeDecodeError as exc:
            raise SerializationError(f"corrupt frame: {exc}") from None
        finally:
            if frame.guard is not None:
                frame.guard.disarm()
        if pos != len(data):
            raise SerializationError(
                f"trailing garbage after frame: {len(data) - pos} bytes unread"
            )
        if stats is not None:
            stats.add(frames_decoded=1, decode_ns=perf_ns() - start, decodes_fast=frame.fast)
        return value


_PENDING = object()


class _Frame:
    """One decode: the buffer, the memo, the counters."""

    __slots__ = ("buf", "end", "memo", "registry", "entries", "unswizzler", "max_depth",
                 "guard", "fast")

    def __init__(self, decoder: Decoder, data: bytes):
        self.buf = data
        self.end = len(data)
        self.memo: list[object] = []
        self.registry = decoder.registry
        self.entries = decoder.registry._by_wire
        self.unswizzler = decoder.unswizzler
        self.max_depth = decoder.max_depth
        self.guard: _RecursionGuard | None = None
        self.fast = 0

    def read(self, pos: int, depth: int) -> tuple[object, int]:
        buf = self.buf
        if pos >= self.end:
            raise self._truncated(pos, 1)
        tag = buf[pos]
        pos += 1
        if tag == tags.STR:
            stop = pos + 4 + _U32(buf, pos)[0]
            if stop > self.end:
                raise self._truncated(pos + 4, stop - pos - 4)
            return str(buf[pos + 4 : stop], "utf-8"), stop
        if tag == tags.INT:
            if pos >= self.end:
                raise self._truncated(pos, 1)
            stop = pos + 1 + buf[pos]
            if stop > self.end:
                raise self._truncated(pos + 1, stop - pos - 1)
            return int.from_bytes(buf[pos + 1 : stop], "big", signed=True), stop
        if tag == tags.NONE:
            return None, pos
        if tag == tags.BYTES:
            stop = pos + 4 + _U32(buf, pos)[0]
            if stop > self.end:
                raise self._truncated(pos + 4, stop - pos - 4)
            return buf[pos + 4 : stop], stop
        if tag == tags.TRUE:
            return True, pos
        if tag == tags.FALSE:
            return False, pos
        if tag == tags.FLOAT:
            return _F64(buf, pos)[0], pos + 8
        reader = _READERS.get(tag)
        if reader is None:
            raise UnknownWireTagError(f"unknown wire tag 0x{tag:02x}", tag=tag)
        if depth >= _LAZY_GUARD_DEPTH and self.guard is None:
            # Decoding nests as deeply as encoding did; see the encoder.
            self.guard = _RecursionGuard(self.max_depth)
        return reader(self, pos, depth + 1)

    def _truncated(self, pos: int, wanted: int, what: str = "frame") -> TruncatedFrameError:
        available = max(0, self.end - pos)
        return TruncatedFrameError(
            f"truncated {what}: wanted {wanted} bytes at offset {pos}, "
            f"only {available} available",
            offset=pos,
            wanted=wanted,
            available=available,
        )

    def _name(self, pos: int) -> tuple[bytes, int]:
        """A length-prefixed wire name, as the bytes the registry indexes."""
        stop = pos + 4 + _U32(self.buf, pos)[0]
        if stop > self.end:
            raise self._truncated(pos + 4, stop - pos - 4)
        return self.buf[pos + 4 : stop], stop

    def _entry(self, name: bytes) -> TypeEntry:
        entry = self.entries.get(name)
        if entry is None:
            self.registry.lookup_name(str(name, "utf-8"))  # raises: unknown here
        return entry  # type: ignore[return-value]

    # -- memoized kinds: each reserves its memo slot before its contents --
    def _read_ref(self, pos: int, depth: int) -> tuple[object, int]:
        index = _U32(self.buf, pos)[0]
        if index >= len(self.memo):
            raise SerializationError(f"dangling back-reference #{index}")
        return self.memo[index], pos + 4

    def _read_bytearray(self, pos: int, depth: int) -> tuple[object, int]:
        stop = pos + 4 + _U32(self.buf, pos)[0]
        if stop > self.end:
            raise self._truncated(pos + 4, stop - pos - 4)
        out = bytearray(self.buf[pos + 4 : stop])
        self.memo.append(out)
        return out, stop

    def _read_list(self, pos: int, depth: int) -> tuple[object, int]:
        out: list[object] = []
        self.memo.append(out)
        count = _U32(self.buf, pos)[0]
        pos += 4
        read = self.read
        for _ in range(count):
            item, pos = read(pos, depth)
            out.append(item)
        return out, pos

    def _read_dict(self, pos: int, depth: int) -> tuple[object, int]:
        mapping: dict[object, object] = {}
        self.memo.append(mapping)
        count = _U32(self.buf, pos)[0]
        pos += 4
        read = self.read
        for _ in range(count):
            key, pos = read(pos, depth)
            mapping[key], pos = read(pos, depth)
        return mapping, pos

    def _read_swizzled(self, pos: int, depth: int) -> tuple[object, int]:
        kind, pos = self._name(pos)
        slot = len(self.memo)
        self.memo.append(_PENDING)
        data, pos = self.read(pos, depth)
        descriptor = SwizzleDescriptor(kind=str(kind, "utf-8"), data=data)
        unswizzler = self.unswizzler
        self.memo[slot] = built = (
            unswizzler.unswizzle(descriptor) if unswizzler is not None else descriptor
        )
        return built, pos

    def _read_object(self, pos: int, depth: int) -> tuple[object, int]:
        name, pos = self._name(pos)
        entry = self._entry(name)
        instance = entry.factory()
        self.memo.append(instance)
        state, pos = self.read(pos, depth)
        entry.set_state(instance, state)
        return instance, pos

    def _read_schema(self, pos: int, depth: int) -> tuple[object, int]:
        entry = self._entry(self._name(pos)[0])
        codec = entry.codec
        # The header holds the tag (already consumed), the name, and — for
        # an inferred schema — its hash: all of it must match ours.
        body = pos - 1 + len(codec.header) if codec is not None else 0
        if body > self.end:
            raise self._truncated(pos, body - pos, f"compiled frame for {entry.name!r}")
        if codec is None or self.buf[pos - 1 : body] != codec.header:
            raise SerializationError(
                f"compiled frame for {entry.name!r} does not match a codec on this "
                "site — peers must share class definitions"
            )
        try:
            instance, pos = codec.decode(
                self.buf, body, self.end, self.memo, self.read, depth, entry.factory
            )
        except struct.error:
            raise self._truncated(body, 1, f"compiled frame for {entry.name!r}") from None
        self.fast += 1
        return instance, pos


def _read_frozen(build: type, frame: _Frame, pos: int, depth: int) -> tuple[object, int]:
    # Immutable (or unhashable-until-built) containers decode into a
    # placeholder slot, then patch the memo.  A self-referential tuple
    # cannot be built in Python either, so an inner REF to one under
    # construction is a sender bug and surfaces as a placeholder leak.
    memo = frame.memo
    slot = len(memo)
    memo.append(_PENDING)
    count = _U32(frame.buf, pos)[0]
    pos += 4
    items = []
    read = frame.read
    for _ in range(count):
        item, pos = read(pos, depth)
        items.append(item)
    memo[slot] = built = build(items)
    return built, pos


_READERS = {
    tags.REF: _Frame._read_ref,
    tags.BYTEARRAY: _Frame._read_bytearray,
    tags.LIST: _Frame._read_list,
    tags.DICT: _Frame._read_dict,
    tags.TUPLE: partial(_read_frozen, tuple),
    tags.SET: partial(_read_frozen, set),
    tags.FROZENSET: partial(_read_frozen, frozenset),
    tags.SWIZZLED: _Frame._read_swizzled,
    tags.OBJECT: _Frame._read_object,
    tags.OBJECT_SCHEMA: _Frame._read_schema,
}
