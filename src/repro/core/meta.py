"""Object identity and the compiled-class registry.

Every OBIWAN-managed object carries a stable logical identity, ``_obi_id``,
stored in its instance ``__dict__`` so it crosses the wire with the rest of
the state.  A master and all of its replicas share one ``_obi_id`` — it is
how sites correlate "the same object" across the network, the way the Java
prototype correlates through its proxy-in references.  Each site exports
an object's proxy-in under this id, so :func:`proxy_in_ref` names it from
the site alone and one identity serves both purposes.

The :class:`CompiledClassRegistry` records every obicomp-compiled class:
its derived interface and its generated proxy-out class.  The paper's
deployment model ships obicomp output to every site; here all sites live in
one process, so a single registry plays that role.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.interfaces import Interface
from repro.rmi.refs import RemoteRef
from repro.util.errors import ReplicationError
from repro.util.ids import IdGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.proxy_out import ProxyOutBase

#: Instance attribute holding the logical object identity.
OBI_ID_ATTR = "_obi_id"

#: Class attribute holding the derived :class:`Interface`.
OBI_INTERFACE_ATTR = "_obi_interface"

_obi_ids = IdGenerator("oid")


def is_compiled_class(cls: type) -> bool:
    """True if ``cls`` went through obicomp (has a derived interface)."""
    return OBI_INTERFACE_ATTR in vars(cls)


def is_obiwan(obj: object) -> bool:
    """True if ``obj`` is an instance of an obicomp-compiled class.

    Proxy-outs are *not* obiwan objects in this sense — they are platform
    stand-ins; use ``isinstance(obj, ProxyOutBase)`` for those.
    """
    return OBI_INTERFACE_ATTR in vars(type(obj))


def interface_of(target: object) -> Interface:
    """The derived interface of a compiled class or instance."""
    cls = target if isinstance(target, type) else type(target)
    for klass in cls.__mro__:
        iface = vars(klass).get(OBI_INTERFACE_ATTR)
        if iface is not None:
            return iface
    raise ReplicationError(
        f"{cls.__module__}.{cls.__qualname__} was not compiled with obicomp; "
        "decorate it with @obiwan.compile"
    )


def obi_id_of(obj: object) -> str:
    """The logical identity of ``obj``, assigning one on first use."""
    if not is_obiwan(obj):
        raise ReplicationError(
            f"{type(obj).__name__} instance is not an OBIWAN object; compile its class first"
        )
    existing = vars(obj).get(OBI_ID_ATTR)
    if existing is not None:
        return existing
    fresh = _obi_ids()
    vars(obj)[OBI_ID_ATTR] = fresh
    return fresh


def proxy_in_ref(site_id: str, obj: object) -> RemoteRef:
    """The reference of ``obj``'s proxy-in on ``site_id``: every site
    exports it under the object's oid and interface name."""
    return RemoteRef(site_id, obi_id_of(obj), interface_of(obj).name)


def peek_obi_id(obj: object) -> str | None:
    """The logical identity of ``obj`` if it has one, without assigning."""
    return vars(obj).get(OBI_ID_ATTR)


class CompiledClassRegistry:
    """interface name → compiled class + generated proxy-out class."""

    def __init__(self) -> None:
        self._by_interface: dict[str, "CompiledEntry"] = {}

    def add(self, entry: "CompiledEntry") -> None:
        existing = self._by_interface.get(entry.interface.name)
        if existing is not None and existing.cls is not entry.cls:
            raise ReplicationError(
                f"interface {entry.interface.name!r} already compiled for {existing.cls!r}"
            )
        self._by_interface[entry.interface.name] = entry

    def by_interface(self, name: str) -> "CompiledEntry":
        try:
            return self._by_interface[name]
        except KeyError:
            raise ReplicationError(
                f"no compiled class for interface {name!r} on this site; "
                "all sites must load the same obicomp output"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_interface

    def __len__(self) -> int:
        return len(self._by_interface)


class CompiledEntry:
    """One obicomp compilation result."""

    __slots__ = ("cls", "interface", "proxy_out_cls")

    def __init__(self, cls: type, interface: Interface, proxy_out_cls: "type[ProxyOutBase]"):
        self.cls = cls
        self.interface = interface
        self.proxy_out_cls = proxy_out_cls

    def __repr__(self) -> str:
        return f"CompiledEntry({self.cls.__name__}, {self.interface.name})"


#: Process-wide registry of compiled classes (the shipped obicomp output).
compiled_registry = CompiledClassRegistry()
