"""The name server.

In the paper's prototypical example, "only object AProxyIn is registered in
a name server, and S1 holds a remote reference to AProxyIn, obtained from a
name server".  The name server here is itself an ordinary exported object
living on a designated site under the well-known id
:data:`NAMESERVER_OBJECT_ID`; any site invokes it through plain RMI.
"""

from __future__ import annotations

from repro.rmi.refs import RemoteRef
from repro.util.errors import NameNotFoundError, ProtocolError

#: Well-known export id of the name server object on its hosting site.
NAMESERVER_OBJECT_ID = "obj:nameserver"

#: Interface methods a name-server stub exposes.
NAMESERVER_METHODS = ("bind", "rebind", "unbind", "lookup", "bindings")


class NameServer:
    """Name → remote reference directory."""

    def __init__(self) -> None:
        self._bindings: dict[str, RemoteRef] = {}

    def bind(self, name: str, ref: RemoteRef) -> None:
        """Register ``name``; rebinding an existing name is an error."""
        if name in self._bindings:
            raise ProtocolError(f"name {name!r} is already bound")
        self._bindings[name] = ref

    def rebind(self, name: str, ref: RemoteRef) -> None:
        """Register ``name``, replacing any existing binding."""
        self._bindings[name] = ref

    def unbind(self, name: str) -> None:
        if name not in self._bindings:
            raise NameNotFoundError(f"name {name!r} is not bound")
        del self._bindings[name]

    def lookup(self, name: str) -> RemoteRef:
        try:
            return self._bindings[name]
        except KeyError:
            raise NameNotFoundError(f"name {name!r} is not bound") from None

    def bindings(self) -> dict[str, RemoteRef]:
        """Every binding, sorted by name: the whole directory in one call."""
        return dict(sorted(self._bindings.items()))
