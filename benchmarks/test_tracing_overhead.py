"""PR-5 bench smoke: obitrace must be free while it is off.

Asserts the headline acceptance claim — with tracing disabled, the
instrumented fault path costs < 2% on the chunk-1 list walk — and
sanity-checks the enabled path (spans actually recorded, no-op span under
2 µs).  Records ``BENCH_pr5.json`` at the repo root when
``OBIWAN_BENCH_RECORD`` is set (the CI bench-smoke job does).

The disabled overhead is the deterministic estimate
``no-op span cost × spans per walk / walk wall time`` — a per-walk delta
that small cannot be resolved by direct A/B wall timing, which is the
point of the claim.
"""

import json
import os
from pathlib import Path

from repro.bench.tracing_overhead import tracing_overhead_report


def test_tracing_overhead_smoke(once):
    report = once(tracing_overhead_report)

    # The traced twin run actually traced: a chunk-1 walk of a 1000-node
    # list emits several spans per fault at each site.
    assert report.spans_per_walk > report.length

    # A disabled span is a dict build plus a shared no-op context manager.
    assert report.null_span_ns < 2000.0

    # The acceptance bar: tracing off costs < 2% of the walk.
    assert report.est_disabled_overhead_pct < 2.0

    print("\nPR-5 tracing overhead:")
    print(
        f"  walk wall clock  off {report.disabled_wall_ms:.1f} ms / "
        f"on {report.enabled_wall_ms:.1f} ms "
        f"({report.spans_per_walk} spans)"
    )
    print(
        f"  no-op span {report.null_span_ns:.0f} ns -> est. disabled "
        f"overhead {report.est_disabled_overhead_pct:.3f}% (< 2% budget)"
    )
    print(f"  enabled overhead {report.enabled_overhead_pct:.1f}%")

    if os.environ.get("OBIWAN_BENCH_RECORD"):
        target = Path(__file__).resolve().parent.parent / "BENCH_pr5.json"
        target.write_text(
            json.dumps(report.jsonable(), indent=2, sort_keys=True) + "\n"
        )
        print(f"  recorded {target}")
