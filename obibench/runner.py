"""Run one workload in this process and assemble its metrics.

``--trace 0``: set up :data:`SETUP_REPEATS` times (``setup_s`` and
``warmup_ms`` are medians over those), keep the last world, run units
for ``seconds`` of wall clock, gate, report the end-to-end metrics.

``--trace 1``: a quarter of the time untraced as the overhead baseline,
then a fresh world with the layer boundaries wrapped for the rest, and
the per-layer ledger from its spans and the program's own counters.

Units run until the clock runs out, not to a fixed count: the driver
fixes a run's length.  The inputs are still a pure function of the seed,
so two runs of one seed execute the same sequence as far as each gets.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import threading
import time
from collections import Counter
from time import perf_counter_ns

from obibench import layers
from obibench.spans import BENCH, Tracer
from obibench.stats import metric, percentile, windowed_tail
from obibench.workloads import WORKLOADS, Recorder, Workload

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Unit index of the first warm-up unit; further ones count down from it
#: (timed units count up from 0, the builders use -2 and -3).
WARMUP_INDEX = -10


class Measurement:
    """What one timed stretch of units produced."""

    def __init__(self, workload: Workload, recorders: list[Recorder], wall_s: float,
                 cpu_s: float, wire_bytes: int, wire_messages: int):
        self.workload = workload
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.wire_bytes = wire_bytes
        self.wire_messages = wire_messages
        self.samples_ns: dict[str, list[int]] = {}
        self.payload_bytes: Counter[str] = Counter()
        self.ops = self.attempted = self.failed = 0
        self.failures: list[str] = []
        for rec in recorders:
            for kind, values in rec.samples_ns.items():
                self.samples_ns.setdefault(kind, []).extend(values)
            self.payload_bytes.update(rec.payload_bytes)
            self.ops += rec.ops
            self.attempted += rec.attempted
            self.failed += rec.failed
            self.failures.extend(rec.failures)

    def p50_ms(self, kind: str) -> float:
        samples = self.samples_ns.get(kind)
        return percentile(samples, 50.0) / 1e6 if samples else 0.0


def run_unit(workload: Workload, rec: Recorder, client: int, index: int) -> None:
    """One unit: timed as a whole, kept only if every op in it passed."""
    failed_before = rec.failed
    start = perf_counter_ns()
    try:
        if rec.tracer is None:
            workload.unit(rec, client, index)
        else:
            with rec.tracer.span(BENCH, "unit"):
                workload.unit(rec, client, index)
    except Exception as exc:  # noqa: BLE001 - a unit that raises is a failed operation
        rec.attempted += 1
        rec._fail(f"unit {index}: {type(exc).__name__}: {exc}")
    elapsed = perf_counter_ns() - start
    if rec.failed == failed_before:
        rec.samples_ns["unit"].append(elapsed)
    workload.cleanup()


def set_up(cls: type[Workload], seed: int, tracer: Tracer | None, smoke: bool):
    """Build a world and run its untimed warm-up.

    Returns ``(workload, setup seconds, warm-up ms)``.  Set-up is
    everything before the first timed operation, warm-up included; the
    warm-up of the first client is also reported on its own, so work
    moved out of world building into first use shows there.
    """
    start = perf_counter_ns()
    workload = cls(seed, tracer, smoke=smoke)
    workload.setup()
    warm_ms = 0.0
    for client in range(cls.clients):
        rec = Recorder(tracer)
        for index in range(WARMUP_INDEX, WARMUP_INDEX - workload.warmup_units, -1):
            run_unit(workload, rec, client, index)
        if rec.failed:
            workload.close()
            raise RuntimeError(f"warm-up failed: {rec.failures}")
        if client == 0:
            warm_ms = sum(rec.samples_ns["unit"]) / 1e6
    return workload, (perf_counter_ns() - start) / 1e9, warm_ms


def measure(workload: Workload, seconds: float) -> Measurement:
    """Closed loop: each client thread runs units until the deadline."""
    tracer = workload.tracer
    recorders = [Recorder(tracer) for _ in range(workload.clients)]
    stats = workload.world.network.stats
    bytes_before, messages_before = stats.total_bytes, stats.total_messages
    barrier = threading.Barrier(workload.clients)
    deadline = [0.0]

    def client_loop(client: int) -> None:
        rec = recorders[client]
        if barrier.wait() == 0:
            deadline[0] = time.perf_counter() + seconds
        barrier.wait()
        index = 0
        while time.perf_counter() < deadline[0]:
            run_unit(workload, rec, client, index)
            index += 1

    cpu_before = time.process_time()
    start = time.perf_counter()
    if workload.clients == 1:
        client_loop(0)
    else:
        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"client-{c}")
            for c in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_before
    return Measurement(
        workload,
        recorders,
        wall_s,
        cpu_s,
        stats.total_bytes - bytes_before,
        stats.total_messages - messages_before,
    )


def finish(workload: Workload, measured: Measurement) -> dict[str, float]:
    """End-of-run gates, folded into the measurement's counts."""
    rec = Recorder()
    extra = workload.finish(rec)
    measured.attempted += rec.attempted
    measured.failed += rec.failed
    measured.failures.extend(rec.failures)
    return extra


def program_counters(workload: Workload) -> Counter[str]:
    """The program's own counters: site telemetry summed over every
    site, and the network's traffic and connection totals."""
    counters = workload.telemetry()
    network = workload.world.network
    counters["wire_bytes"] = network.stats.total_bytes
    counters["wire_messages"] = network.stats.total_messages
    pool = getattr(network, "pool_stats", None)
    counters["connections_created"] = pool.total_created if pool is not None else 0
    return counters


def end_to_end(measured: Measurement, setup_s: list[float], warm_ms: list[float]) -> dict:
    """The fifteen end-to-end metrics of one untraced run."""
    workload = measured.workload
    ops = max(1, measured.ops)
    out = {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "warmup_ms": metric(statistics.median(warm_ms), "ms", len(warm_ms)),
    }
    for kind in ("unit", "read", "write"):
        samples = measured.samples_ns.get(kind) or [0]
        pct = workload.tail_pct[kind]
        out[f"{kind}_p50_ms"] = metric(percentile(samples, 50.0) / 1e6, "ms", len(samples))
        tail_ns, windows = windowed_tail(samples, pct)
        out[f"{kind}_tail_ms"] = metric(
            tail_ns / 1e6, "ms", len(samples), percentile=pct, windows=windows,
            supported=windows > 0,
        )
    for kind in ("read", "write"):
        busy_s = sum(measured.samples_ns.get(kind, ())) / 1e9
        out[f"{kind}_mb_per_s"] = metric(
            measured.payload_bytes[kind] / 1e6 / busy_s if busy_s else 0.0,
            "MB/s",
            len(measured.samples_ns.get(kind, ())),
        )
    out["ops_per_s"] = metric(measured.ops / measured.wall_s, "1/s", measured.ops)
    out["wire_bytes_per_op"] = metric(measured.wire_bytes / ops, "B", measured.ops)
    out["wire_msgs_per_op"] = metric(measured.wire_messages / ops, "count", measured.ops)
    out["cpu_ms_per_op"] = metric(measured.cpu_s * 1e3 / ops, "ms", measured.ops)
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
    )
    return out


def limit_cpus() -> None:
    """Confine this process to one CPU (the first it is allowed).

    One interpreter runs Python on one CPU at a time whatever it is given.
    The loop is closed: while a client waits for its reply it is the
    server thread that runs.  A second CPU therefore buys next to nothing
    and costs a wake-up of another CPU for every request and reply and a
    hand-off of the GIL between cores, and on a virtual machine the price
    of waking an idle virtual CPU is the host's to decide.  Measured here
    on two CPUs: one-client workloads ran 1.6 times slower whenever the box
    was otherwise idle and at full speed whenever anything else kept the
    second CPU awake; ``sync_mix`` swung between 420 and 940 op/s across
    ten runs, against 1 550-1 680 on one CPU.  The first CPU, because on
    the reference box it is the second that other work lands on: the same
    runs confined to that one lost half their speed for minutes at a time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpus_used": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    smoke: bool = False,
    spans_out: str | None = None,
) -> dict:
    """Run one workload; returns the full result record."""
    cls = WORKLOADS[name]
    repeats = 1 if smoke else SETUP_REPEATS
    result: dict[str, object] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "clients": cls.clients,
        "op": cls.op_unit,
        "env": environment(),
    }

    if not trace:
        setup_s, warm_ms = [], []
        workload = None
        for _ in range(repeats):
            if workload is not None:
                workload.close()
            workload, took_s, warm = set_up(cls, seed, None, smoke)
            setup_s.append(took_s)
            warm_ms.append(warm)
        try:
            measured = measure(workload, seconds)
            finish(workload, measured)
        finally:
            workload.close()
        metrics = end_to_end(measured, setup_s, warm_ms)
    else:
        workload, _setup, _warm = set_up(cls, seed, None, smoke)
        try:
            baseline = measure(workload, seconds / 4)
        finally:
            workload.close()
        tracer = Tracer()
        layers.instrument(tracer)
        workload, _setup, _warm = set_up(cls, seed, tracer, smoke)
        tracer.spans.clear()  # the warm-up's spans are not data
        try:
            before = program_counters(workload)
            measured = measure(workload, seconds * 3 / 4)
            counters = program_counters(workload)
            counters.subtract(before)
            spans = list(tracer.spans)  # the gates below are not the workload
            extra = finish(workload, measured)
            metrics = layers.ledger(
                spans,
                counters,
                extra,
                ops=measured.ops,
                traced_unit_ms=measured.p50_ms("unit"),
                untraced_unit_ms=baseline.p50_ms("unit"),
            )
        finally:
            workload.close()
        measured.attempted += baseline.attempted
        measured.failed += baseline.failed
        measured.failures.extend(baseline.failures)
        if spans_out is not None:
            tracer.write(spans_out)

    result.update(
        correct=measured.failed == 0,
        attempted=measured.attempted,
        failed=measured.failed,
        failures=measured.failures[:20],
        units=len(measured.samples_ns.get("unit", ())),
        ops=measured.ops,
        wall_s=measured.wall_s,
        metrics=metrics,
    )
    return result
