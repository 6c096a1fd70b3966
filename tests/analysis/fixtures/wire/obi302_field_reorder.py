"""Seeded defect: a committed wire shape was reordered (OBI302).

This module re-registers the ``core.ObjectMeta`` wire name with
``version`` and ``interface`` swapped relative to the committed
``.github/wire-baseline.json`` — a refactor that "tidied" the field
order.  Frames are positional: every deployed peer now decodes a
version where it expects an interface name.
"""

from dataclasses import dataclass

from repro.serial.registry import global_registry


@dataclass(slots=True)
class ObjectMeta:
    obi_id: str = ""
    version: int = 1
    interface: str = ""
    provider: object = None
    cluster_root: str | None = None


global_registry.register(ObjectMeta, name="core.ObjectMeta")
