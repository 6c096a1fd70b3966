"""PR-9 bench smoke: one reactor loop vs thread-per-connection at scale.

Phase one holds thousands of multiplexed consumer channels open against
a single provider site (default 5,000; ``OBIWAN_CONNECTION_SCALE``
shrinks it for CI).  Phase two races the reactor against the threaded
backend on the same echo workload at 1,000 consumers
(``OBIWAN_CONNECTION_RACE``); the acceptance claim is a >= 3x wall-clock
win.  Sanity claims hold at any scale; the paper-grade bars only apply
when the run is at full scale, so the CI smoke stays fast while the
committed ``BENCH_pr9.json`` comes from a full-scale run.  Records
``BENCH_pr9.json`` at the repo root when ``OBIWAN_BENCH_RECORD`` is set
(the CI bench-smoke job does).
"""

import json
import os
from pathlib import Path

from repro.bench.connection_scale import (
    DEFAULT_RACE_CONNECTIONS,
    DEFAULT_SUSTAIN_CONNECTIONS,
    connection_scale_report,
)


def test_connection_scale_smoke(once):
    report = once(connection_scale_report)
    sustain, race = report.sustain, report.race

    # The provider accepted one connection per consumer and held them all
    # open at once (the +1 is the warmup consumer's channel).
    assert sustain.accepted >= sustain.connections
    assert sustain.open_at_peak >= sustain.connections
    assert sustain.frames_pipelined >= sustain.connections

    # The reactor never loses to thread-per-connection, at any scale.
    assert race.speedup > 1.0

    # The PR-9 acceptance bars, judged only at full scale.
    if sustain.connections >= DEFAULT_SUSTAIN_CONNECTIONS:
        assert sustain.connections >= 5000
    if race.connections >= DEFAULT_RACE_CONNECTIONS:
        assert race.speedup >= 3.0

    print("\nPR-9 connection scale (one provider site, loopback TCP):")
    print(
        f"  sustain  {sustain.connections} consumer channels held"
        f"  ({sustain.accepted} accepted, peak {sustain.open_at_peak} open)"
        f"  in {sustain.wall_ms:.0f} ms, loop lag max {sustain.loop_lag_max_ms:.2f} ms"
    )
    print(
        f"  race     {race.connections} consumers x {race.requests_per_consumer} requests:"
        f"  threaded {race.threaded_ms:.0f} ms  reactor {race.reactor_ms:.0f} ms"
        f"  speedup {race.speedup:.2f}x"
    )

    if os.environ.get("OBIWAN_BENCH_RECORD"):
        target = Path(__file__).resolve().parent.parent / "BENCH_pr9.json"
        target.write_text(
            json.dumps(report.jsonable(), indent=2, sort_keys=True) + "\n"
        )
        print(f"  recorded {target}")
