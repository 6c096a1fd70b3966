"""Breaking-change analysis between two wire specs.

The evolution rules (docs/WIRE.md) boil down to: tags keep their values
forever, a class's positional shape is fixed (removing, reordering or
adding a field changes every frame of it), and a verb stays while any
peer may still issue it.  New tags, classes and verbs are additions.
``diff_specs`` classifies every difference between OLD and NEW against
those rules — ``breaking`` means a build of OLD and a build of NEW can
misparse each other's frames or dead-end an RPC; ``compatible`` is an
addition neither side can misread.  ``obiwire check`` fails on both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.wire.spec import WireSpec

BREAKING = "breaking"
COMPATIBLE = "compatible"


@dataclass(frozen=True)
class Change:
    kind: str  # BREAKING | COMPATIBLE
    category: str  # e.g. "tag-value-changed"
    entity: str  # the tag / wire name / verb
    detail: str

    def format(self) -> str:
        return f"[{self.kind}] {self.category}: {self.entity} — {self.detail}"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "category": self.category,
            "entity": self.entity,
            "detail": self.detail,
        }


def diff_specs(old: WireSpec, new: WireSpec) -> list[Change]:
    changes: list[Change] = []
    changes.extend(_diff_tags(old, new))
    changes.extend(_diff_classes(old, new))
    changes.extend(_diff_verbs(old, new))
    return changes


def has_breaking(changes: list[Change]) -> bool:
    return any(change.kind == BREAKING for change in changes)


def render_diff(changes: list[Change]) -> str:
    if not changes:
        return "wire specs are identical"
    lines = [change.format() for change in changes]
    breaking = sum(1 for c in changes if c.kind == BREAKING)
    lines.append(
        f"{len(changes)} change(s), {breaking} breaking"
        if breaking
        else f"{len(changes)} compatible change(s)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _diff_tags(old: WireSpec, new: WireSpec) -> list[Change]:
    changes: list[Change] = []
    for name in sorted(old.tags):
        if name not in new.tags:
            changes.append(
                Change(
                    BREAKING,
                    "tag-removed",
                    name,
                    f"tag 0x{old.tags[name]:02x} no longer exists; old peers "
                    "still emit it",
                )
            )
        elif new.tags[name] != old.tags[name]:
            changes.append(
                Change(
                    BREAKING,
                    "tag-value-changed",
                    name,
                    f"0x{old.tags[name]:02x} -> 0x{new.tags[name]:02x}; every "
                    "deployed decoder keyed on the old byte",
                )
            )
    for name in sorted(new.tags):
        if name not in old.tags:
            changes.append(
                Change(
                    COMPATIBLE,
                    "tag-added",
                    name,
                    f"new tag 0x{new.tags[name]:02x}",
                )
            )
    return changes


def _diff_classes(old: WireSpec, new: WireSpec) -> list[Change]:
    changes: list[Change] = []
    for wire_name in sorted(old.classes):
        if wire_name not in new.classes:
            changes.append(
                Change(
                    BREAKING,
                    "class-removed",
                    wire_name,
                    "frames with this wire name no longer resolve",
                )
            )
            continue
        changes.extend(_diff_one_class(wire_name, old, new))
    for wire_name in sorted(new.classes):
        if wire_name not in old.classes:
            changes.append(
                Change(
                    COMPATIBLE,
                    "class-added",
                    wire_name,
                    "new frame type",
                )
            )
    return changes


def _diff_one_class(wire_name: str, old: WireSpec, new: WireSpec) -> list[Change]:
    changes: list[Change] = []
    before, after = old.classes[wire_name], new.classes[wire_name]
    if before.state != after.state:
        changes.append(
            Change(
                BREAKING,
                "state-kind-changed",
                wire_name,
                f"state shape went {before.state} -> {after.state}; old "
                "decoders unpack the other representation",
            )
        )
        return changes
    old_names = [f.name for f in before.fields]
    new_names = [f.name for f in after.fields]
    removed = [n for n in old_names if n not in new_names]
    for name in removed:
        changes.append(
            Change(
                BREAKING,
                "field-removed",
                f"{wire_name}.{name}",
                "positional decoders shift every later field",
            )
        )
    common_old = [n for n in old_names if n in new_names]
    common_new = [n for n in new_names if n in old_names]
    if common_old != common_new:
        changes.append(
            Change(
                BREAKING,
                "field-reordered",
                wire_name,
                f"committed order {common_old} became {common_new}; state "
                "tuples are positional",
            )
        )
    for name in new_names:
        if name not in old_names:
            changes.append(
                Change(
                    BREAKING,
                    "field-added",
                    f"{wire_name}.{name}",
                    "a build on the committed shape cannot decode the longer frame",
                )
            )
    return changes


def _diff_verbs(old: WireSpec, new: WireSpec) -> list[Change]:
    changes: list[Change] = []
    for verb in sorted(old.verbs - new.verbs):
        changes.append(
            Change(
                BREAKING,
                "verb-removed",
                verb,
                "peers running the old build still issue it",
            )
        )
    for verb in sorted(new.verbs - old.verbs):
        changes.append(Change(COMPATIBLE, "verb-added", verb, "new RMI verb"))
    return changes
