"""The obilint rule catalog.

One instance per rule; the engine runs every selected rule over every
module.  Ids are stable (suppressions reference them), and a deleted
rule's id is never reused; add new rules at the end with the next free
id.
"""

from __future__ import annotations

from repro.analysis.findings import Rule
from repro.analysis.flow.rules import (
    BlockingUnderLockRule,
    DemandOutsideFaultPathRule,
    FeedApplyEpochGuardRule,
    PutWithoutSourceRule,
    SnapshotReadMutationRule,
    UnguardedStateRule,
)
from repro.analysis.rules.compiled import InterfaceShadowingRule, SchemaInputDriftRule
from repro.analysis.rules.hygiene import NondeterministicClockRule, SwallowedExceptionRule


def build_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, in catalog order."""
    return [
        InterfaceShadowingRule(),
        SwallowedExceptionRule(),
        NondeterministicClockRule(),
        # Whole-program flow rules (see repro.analysis.flow).
        BlockingUnderLockRule(),
        UnguardedStateRule(),
        PutWithoutSourceRule(),
        DemandOutsideFaultPathRule(),
        SnapshotReadMutationRule(),
        FeedApplyEpochGuardRule(),
        SchemaInputDriftRule(),
    ]


#: The default catalog (shared instances; rules are stateless between runs).
ALL_RULES: list[Rule] = build_rules()

__all__ = ["ALL_RULES", "build_rules"]
