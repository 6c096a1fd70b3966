"""Proxies-in: the provider-side halves of proxy pairs.

A proxy-in lives next to a master object, is exported through RMI, and is
the only remotely reachable handle on that object.  It implements the
paper's two provider interfaces:

* ``IProvideRemote`` — ``get(mode)`` creates a replica package,
  ``put(package)`` applies a replica's state back onto the master;
* ``IDemandeeRemote`` — ``demand(mode)`` is what a proxy-out calls to
  resolve an object fault (operationally the same as ``get``).

It also forwards the master's own interface methods, so a consumer can
keep invoking the master via RMI even after replicating it — the paper's
"both replicas, the master and the local, can be freely invoked".

The Java prototype generates one ``AProxyIn`` class per user class; here a
single generic class suffices because dispatch is reflective.  obicomp's
source-emitting mode (:mod:`repro.core.obicomp.emit`) still writes
per-class proxy-in sources for fidelity with the paper's tooling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.interfaces import Incremental, ReplicationMode
from repro.util.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.packages import PutPackage, ReplicaPackage
    from repro.core.runtime import Site

#: Control methods every proxy-in exposes in addition to the user interface.
PROXY_IN_CONTROL_METHODS = ("get", "put", "demand", "get_version")


class ProxyIn:
    """Remote-invocable handle on one master object."""

    def __init__(self, site: "Site", master: object):
        # Set via object.__setattr__-free plain assignment; __getattr__
        # forwarding only triggers for *missing* attributes.
        self._obi_site = site
        self._obi_master = master

    # ------------------------------------------------------------------
    # IProvideRemote
    # ------------------------------------------------------------------
    def get(self, mode: ReplicationMode | None = None) -> "ReplicaPackage":
        """Build a replica package rooted at the master (paper: ``A.get``)."""
        from repro.core.replication import build_package

        if mode is None:
            mode = Incremental(1)
        elif not isinstance(mode, ReplicationMode):
            raise ProtocolError(f"a scope must be a ReplicationMode, not {type(mode).__name__}")
        return build_package(self._obi_site, self._obi_master, mode)

    def put(self, package: "PutPackage") -> dict[str, int]:
        """Apply a consumer's state back onto masters; returns new versions."""
        from repro.core.replication import apply_put

        return apply_put(self._obi_site, package)

    # ------------------------------------------------------------------
    # IDemandeeRemote
    # ------------------------------------------------------------------
    #: Resolve an object fault: operationally the same as ``get``.  The
    #: consumer sends the scope it wants (its proxy's mode, or a hoard's
    #: closure), so the provider widens nothing.
    demand = get

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def get_version(self, oids: list[str] | None = None) -> int | list[int]:
        """Current master version (bumped on every applied put).

        With ``oids``, the versions of those masters of this site instead,
        in the same order: the reconnect probe, one frame per provider site
        (see :meth:`Site.probe_versions`).
        """
        if oids is None:
            return self._obi_site.master_version(self._obi_master)
        if not isinstance(oids, list) or not all(isinstance(oid, str) for oid in oids):
            raise ProtocolError("a version probe takes a list of oid strings")
        return self._obi_site.probe_versions(oids)

    # ------------------------------------------------------------------
    # RMI-mode forwarding of the user interface
    # ------------------------------------------------------------------
    # Note on semantics: a forwarded invocation may mutate the master,
    # but does NOT bump its version — versioned change detection
    # (refresh, leases, invalidation, reconciliation) observes only
    # ``put`` and ``Site.touch``.  This matches the paper's model, where
    # consistency is entirely the programmer's concern; RMI-mode writers
    # that want detection must call ``touch`` on the master site.
    def __getattr__(self, name: str) -> object:
        if name.startswith("_"):
            raise AttributeError(name)
        master = self.__dict__["_obi_master"]
        value = getattr(master, name)
        if not callable(value):
            raise AttributeError(
                f"{name!r} on {type(master).__name__} is not a method; "
                "remote access is method-only"
            )
        return value

    def __repr__(self) -> str:
        return f"<ProxyIn for {type(self._obi_master).__name__} at {self._obi_site.name!r}>"
