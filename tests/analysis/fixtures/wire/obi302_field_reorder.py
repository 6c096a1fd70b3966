"""Seeded defect: a committed wire shape was reordered (OBI302).

This module re-registers the ``core.PutEntry`` wire name with
``obi_id`` and ``version_seen`` swapped relative to the committed
``.github/wire-baseline.json`` — a refactor that "tidied" the field
order.  Frames are positional: every deployed peer now decodes a
version where it expects an oid.
"""

from dataclasses import dataclass

from repro.serial.registry import global_registry


@dataclass(slots=True)
class PutEntry:
    version_seen: int = 0
    obi_id: str = ""


global_registry.register(PutEntry, name="core.PutEntry")
