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

        return build_package(
            self._obi_site, self._obi_master, mode if mode is not None else Incremental(1)
        )

    def put(self, package: "PutPackage") -> dict[str, int]:
        """Apply a consumer's state back onto masters; returns new versions."""
        from repro.core.replication import apply_put

        return apply_put(self._obi_site, package)

    # ------------------------------------------------------------------
    # IDemandeeRemote
    # ------------------------------------------------------------------
    def demand(self, mode: ReplicationMode | None = None) -> "ReplicaPackage":
        """Resolve an object fault: hand out a package starting here.

        Unlike ``get``, a demand honours the mode's ``prefetch`` knob:
        the traversal widens to ``mode.demand_scope()`` so one fault
        round trip carries the target plus its read-ahead frontier.  The
        returned package is stamped with the *base* mode, so the
        consumer's replica records and frontier proxies keep the
        application's own granularity.
        """
        base = mode if mode is not None else Incremental(1)
        scope = base.demand_scope()
        package = self.get(scope)
        if scope is not base:
            package.mode = base
        return package

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def get_version(self) -> int:
        """Current master version (bumped on every applied put)."""
        return self._obi_site.master_version(self._obi_master)

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
