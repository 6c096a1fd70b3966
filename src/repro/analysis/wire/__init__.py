"""obiwire: static wire-protocol contract extraction and analysis.

The wire contract of an OBIWAN deployment is scattered across four
surfaces: the tag table (:mod:`repro.serial.tags`), the registered frame
classes (slots dataclasses in :mod:`repro.core.packages`,
:mod:`repro.rmi.protocol`, …), the state hooks of the rest
(``ReplicationMode``'s fixed 3-tuple, ``Interface``), and the RMI verbs
the runtime actually issues.  Every class has one shape, and a change to
any surface is a *deployment* event: every site runs the same build.

This package extracts all four into one canonical, fingerprinted spec
(:mod:`~repro.analysis.wire.spec`) and diffs two specs for breaking
changes (:mod:`~repro.analysis.wire.diff`).  The ``obiwire`` CLI
(:mod:`~repro.analysis.wire.cli`) generates the spec, compares it
against the committed ``.github/wire-baseline.json`` — ``obiwire check``
is the one wire gate, and it fails on any drift — and reports breaking
changes between any two spec files.
"""

from repro.analysis.wire.diff import Change, diff_specs, render_diff
from repro.analysis.wire.extract import extract_modules
from repro.analysis.wire.spec import WireClass, WireField, WireSpec

__all__ = [
    "Change",
    "WireClass",
    "WireField",
    "WireSpec",
    "diff_specs",
    "extract_modules",
    "render_diff",
]
