"""The obilint rule catalog.

One instance per rule; the engine runs every selected rule over every
module.  Ids are stable (suppressions reference them); add new rules at
the end with the next free id.
"""

from __future__ import annotations

from repro.analysis.findings import Rule
from repro.analysis.flow.rules import (
    BlockingUnderLockRule,
    DemandOutsideFaultPathRule,
    FeedApplyEpochGuardRule,
    LockOrderCycleRule,
    PutWithoutSourceRule,
    SnapshotReadMutationRule,
    SpliceEscapeRule,
    UnguardedStateRule,
)
from repro.analysis.rules.compiled import (
    InterfaceShadowingRule,
    MutableClassDefaultRule,
    UnserializableStateRule,
)
from repro.analysis.rules.concurrency import LockDisciplineRule
from repro.analysis.rules.dataflow import ReplicaLeakRule
from repro.analysis.rules.hygiene import NondeterministicClockRule, SwallowedExceptionRule
from repro.analysis.rules.protocol import ProtocolSuperCallRule
from repro.analysis.wire.rules import (
    SchemaInputDriftRule,
    TagCollisionRule,
    UnencodableWireFieldRule,
    WireBaselineDriftRule,
)


def build_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in catalog order."""
    return [
        UnserializableStateRule(),
        InterfaceShadowingRule(),
        ReplicaLeakRule(),
        LockDisciplineRule(),
        ProtocolSuperCallRule(),
        MutableClassDefaultRule(),
        SwallowedExceptionRule(),
        NondeterministicClockRule(),
        # Whole-program flow rules (see repro.analysis.flow).
        LockOrderCycleRule(),
        BlockingUnderLockRule(),
        UnguardedStateRule(),
        PutWithoutSourceRule(),
        DemandOutsideFaultPathRule(),
        SpliceEscapeRule(),
        SnapshotReadMutationRule(),
        FeedApplyEpochGuardRule(),
        # Wire-contract rules (see repro.analysis.wire).
        TagCollisionRule(),
        WireBaselineDriftRule(),
        UnencodableWireFieldRule(),
        SchemaInputDriftRule(),
    ]


#: The default catalog (shared instances; rules are stateless between runs).
ALL_RULES: list[Rule] = build_rules()

__all__ = ["ALL_RULES", "build_rules"]
