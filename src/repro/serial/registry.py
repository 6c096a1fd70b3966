"""Type registry: which classes may cross the wire, and how.

A class is encoded as its registered name plus a state value.  By default
the state is the instance ``__dict__`` (honouring ``__getstate__`` /
``__setstate__`` when present) and decoding builds the instance with
``cls.__new__`` — constructors do not rerun on the receiving site, exactly
like Java deserialization.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass

from repro.serial import tags
from repro.serial.compiled import ObjectCodec, maybe_compile_codec
from repro.util.errors import SerializationError

StateGetter = Callable[[object], object]
StateSetter = Callable[[object, object], None]
Factory = Callable[[], object]


def _instance_dict(obj: object) -> object:
    return dict(vars(obj))


def _default_state_getter(cls: type) -> StateGetter:
    # Only honour __getstate__ when the class overrides it: since Python
    # 3.11 ``object`` itself defines one, which returns None for empty
    # instances — not a usable state value.
    for klass in cls.__mro__[:-1]:
        if "__getstate__" in vars(klass):
            return vars(klass)["__getstate__"]
    return _instance_dict


def _default_state_setter(obj: object, state: object) -> None:
    setstate = getattr(obj, "__setstate__", None)
    if callable(setstate):
        setstate(state)
        return
    if not isinstance(state, dict):
        raise SerializationError(
            f"default state for {type(obj).__name__} must be a dict, got {type(state).__name__}"
        )
    vars(obj).update(state)


@dataclass(frozen=True, slots=True)
class TypeEntry:
    """How one registered class is encoded and rebuilt."""

    name: str
    cls: type
    get_state: StateGetter
    set_state: StateSetter
    factory: Factory
    #: ``OBJECT <name>``, pre-encoded: the generic frame's header.
    header: bytes
    #: The schema-compiled codec, for default-state classes that have one.
    codec: ObjectCodec | None


class TypeRegistry:
    """Bidirectional map between classes and wire names."""

    def __init__(self) -> None:
        self._by_name: dict[str, TypeEntry] = {}
        self._by_class: dict[type, TypeEntry] = {}
        #: Decoder-side index: the name exactly as it sits in a frame.
        self._by_wire: dict[bytes, TypeEntry] = {}

    def register(
        self,
        cls: type,
        *,
        name: str | None = None,
        get_state: StateGetter | None = None,
        set_state: StateSetter | None = None,
        factory: Factory | None = None,
    ) -> TypeEntry:
        """Register ``cls``; re-registering the same class is idempotent.

        ``name`` defaults to ``module.QualName``.  Registering a *different*
        class under an existing name is an error — the name is the wire
        identity shared by all sites.
        """
        wire_name = name if name is not None else f"{cls.__module__}.{cls.__qualname__}"
        existing = self._by_name.get(wire_name)
        if existing is not None:
            if existing.cls is cls:
                return existing
            raise SerializationError(
                f"wire name {wire_name!r} already registered for {existing.cls!r}"
            )
        codec = None
        if get_state is None and set_state is None and factory is None:
            # Default-state classes get a schema-compiled codec: their
            # wire state *is* their fields.  Custom hooks opt out.  The
            # codec cache is per class; a second registry that names the
            # class differently keeps it on the generic path.
            codec = maybe_compile_codec(cls, wire_name)
            if codec is not None and codec.name != wire_name:
                codec = None
        name_bytes = wire_name.encode("utf-8")
        entry = TypeEntry(
            name=wire_name,
            cls=cls,
            get_state=get_state or _default_state_getter(cls),
            set_state=set_state or _default_state_setter,
            factory=factory or (lambda: cls.__new__(cls)),
            header=bytes([tags.OBJECT]) + struct.pack("!I", len(name_bytes)) + name_bytes,
            codec=codec,
        )
        self._by_name[wire_name] = entry
        self._by_class[cls] = entry
        self._by_wire[name_bytes] = entry
        return entry

    def lookup_class(self, cls: type) -> TypeEntry:
        entry = self._by_class.get(cls)
        if entry is None:
            raise SerializationError(
                f"class {cls.__module__}.{cls.__qualname__} is not registered for serialization; "
                "compile it with obicomp or call register_type() explicitly"
            )
        return entry

    def lookup_name(self, name: str) -> TypeEntry:
        entry = self._by_name.get(name)
        if entry is None:
            raise SerializationError(f"unknown wire type {name!r} — not registered on this site")
        return entry

    def is_registered(self, cls: type) -> bool:
        return cls in self._by_class

    def child(self) -> "TypeRegistry":
        """A copy that can gain entries without mutating this registry."""
        clone = TypeRegistry()
        clone._by_name.update(self._by_name)
        clone._by_class.update(self._by_class)
        clone._by_wire.update(self._by_wire)
        return clone


#: Registry shared by default across the process.  Suits the common case —
#: the paper's deployment model ships the same obicomp-generated classes to
#: every site; tests that need isolation build their own registry.
global_registry = TypeRegistry()


def register_type(cls: type | None = None, **kwargs: object):
    """Class decorator registering a type in :data:`global_registry`.

    >>> @register_type
    ... class Note:
    ...     pass
    """

    def apply(target: type) -> type:
        global_registry.register(target, **kwargs)  # type: ignore[arg-type]
        return target

    if cls is not None:
        return apply(cls)
    return apply
