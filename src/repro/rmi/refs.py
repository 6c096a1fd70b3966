"""Remote references.

A :class:`RemoteRef` is the wire-safe identity of an exported object:
which site it lives on, its object id in that site's export table, and the
name of the interface it exposes (so a receiving site can build a stub
without further round trips).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serial.registry import global_registry


@dataclass(frozen=True, slots=True)
class RemoteRef:
    """Identity of a remotely-invocable object."""

    site_id: str
    object_id: str
    interface: str = ""

    def __str__(self) -> str:
        suffix = f" ({self.interface})" if self.interface else ""
        return f"{self.object_id}@{self.site_id}{suffix}"


global_registry.register(RemoteRef, name="rmi.RemoteRef")
