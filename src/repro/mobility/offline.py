"""Invocation with graceful degradation.

The paper: "if accessing data on some remote machine is not possible …
the application should not stop working; instead it should, at least,
automatically propose the user an alternative access to such data from
another machine, even if such data is not up to date."

:class:`FallbackInvoker` implements that policy: try the master over RMI;
on disconnection fall back to the local replica and *say so* — the result
carries ``served_by`` and ``possibly_stale`` flags the application can
surface to the user.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.meta import obi_id_of
from repro.rmi.refs import RemoteRef
from repro.util.errors import DisconnectedError, ObjectFaultError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


class ServedBy(enum.Enum):
    MASTER = "master"
    REPLICA = "replica"


@dataclass(frozen=True, slots=True)
class InvocationResult:
    """A value plus provenance: where it came from and how fresh it is."""

    value: object
    served_by: ServedBy
    #: True when the answer came from a replica while the master was
    #: unreachable — it may not reflect the latest master state.
    possibly_stale: bool
    #: Whether the disconnection (if any) was voluntary.
    disconnection_voluntary: bool | None = None


class FallbackInvoker:
    """RMI-first invocation that degrades to the local replica."""

    def __init__(self, site: "Site"):
        self.site = site

    def call(
        self,
        name: str,
        method: str,
        *args: object,
        replica: object | None = None,
        **kwargs: object,
    ) -> InvocationResult:
        """Invoke ``method`` on the master bound to ``name``; fall back to
        ``replica`` (or a previously fetched replica of the same object)
        when the network says no."""
        try:
            ref = self._lookup(name)
            stub = self.site.remote_stub(ref)
            value = getattr(stub, method)(*args, **kwargs)
            return InvocationResult(value=value, served_by=ServedBy.MASTER, possibly_stale=False)
        except DisconnectedError as exc:
            local = replica if replica is not None else self._find_local(name)
            if local is None:
                raise ObjectFaultError(
                    f"{name!r} unreachable and no local replica to fall back on; "
                    "hoard it before disconnecting"
                ) from exc
            value = self.site.invoke_local(local, method, *args, **kwargs)
            return InvocationResult(
                value=value,
                served_by=ServedBy.REPLICA,
                possibly_stale=True,
                disconnection_voluntary=exc.voluntary,
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> RemoteRef:
        # Name lookups themselves can hit the disconnection, which is
        # exactly the fallback trigger, so let DisconnectedError fly.
        cached = self._ref_cache.get(name)
        if cached is not None:
            return cached
        ref = self.site.naming.lookup(name)
        self._ref_cache[name] = ref
        return ref

    @property
    def _ref_cache(self) -> dict[str, RemoteRef]:
        cache = getattr(self, "_ref_cache_storage", None)
        if cache is None:
            cache = {}
            self._ref_cache_storage = cache
        return cache

    def _find_local(self, name: str) -> object | None:
        """A local replica of the object bound to ``name``, if any."""
        ref = self._ref_cache.get(name)
        if ref is None:
            return None  # never resolved the name while online
        # The name maps to the master's proxy-in, exported under its oid.
        record = self.site.replica_info(ref.object_id)
        return record.obj if record is not None else None

    def local_replica_of(self, replica_or_name: object) -> object | None:
        """Public variant of the fallback lookup, for applications."""
        if isinstance(replica_or_name, str):
            return self._find_local(replica_or_name)
        if self.site.replica_info(obi_id_of(replica_or_name)) is not None:
            return replica_or_name
        return None
