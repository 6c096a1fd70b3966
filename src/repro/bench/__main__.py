"""Benchmark CLI: ``python -m repro.bench <command>``.

Commands: ``anchors``, ``fig4``, ``fig5``, ``fig6``, ``ablate-proxy``,
``ablate-prefetch``, ``ablate-consistency``, ``ablate-transport``,
``all``.  Each prints the paper-style rows (and an ASCII plot where the
paper has a chart) and saves JSON under ``results/``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import ablations
from repro.bench.asciiplot import render_plot, render_table
from repro.bench.figures import (
    crossover_invocations,
    experiment_anchors,
    fig4_series,
    fig5_series,
    fig6_series,
    total_times_ms,
)
from repro.bench.harness import FIG4_SIZES, FIG56_CHUNKS
from repro.bench.record import save_json, series_to_jsonable
from repro.util.sizes import format_bytes


def cmd_anchors() -> None:
    anchors = experiment_anchors()
    print("E1 — Section 4.1 anchor measurements")
    print(
        render_table(
            ["metric", "paper", "measured (simulated)"],
            [
                ["LMI (one invocation)", "2 us", f"{anchors.lmi_microseconds:.2f} us"],
                ["RMI (round trip)", "2.8 ms", f"{anchors.rmi_milliseconds:.3f} ms"],
            ],
        )
    )
    save_json(
        "anchors",
        {"lmi_us": anchors.lmi_microseconds, "rmi_ms": anchors.rmi_milliseconds},
    )


def cmd_fig4() -> None:
    curves = fig4_series()
    print("E2 — Figure 4: RMI vs LMI (totals include replica creation + put-back)")
    headers = ["invocations", "RMI (ms)"] + [f"LMI {format_bytes(s)}" for s in FIG4_SIZES]
    rows = []
    for x in curves["RMI"].xs:
        rows.append(
            [int(x), curves["RMI"].at(x)]
            + [curves[f"LMI {s}"].at(x) for s in FIG4_SIZES]
        )
    print(render_table(headers, rows))
    print()
    for size in FIG4_SIZES:
        print(
            f"  crossover (LMI {format_bytes(size)} beats RMI) at "
            f"n = {crossover_invocations(curves, size)}"
        )
    print()
    print(render_plot(list(curves.values()), title="Figure 4 (log-x sampled)"))
    save_json("fig4", {k: series_to_jsonable(v) for k, v in curves.items()})


def _print_fig56(name: str, data: dict[int, dict[int, "object"]]) -> None:
    for size, panel in data.items():
        totals = total_times_ms(panel)
        print(f"\n{name} — {format_bytes(size)} objects, total traversal time:")
        print(
            render_table(
                ["chunk/cluster size"] + [str(c) for c in FIG56_CHUNKS],
                [["time (ms)"] + [f"{totals[c]:.0f}" for c in FIG56_CHUNKS]],
            )
        )
        print(render_plot(list(panel.values()), title=f"{name}, {format_bytes(size)} objects"))


def cmd_fig5() -> None:
    print("E3 — Figure 5: incremental replication, per-object proxy pairs")
    data = fig5_series()
    _print_fig56("Figure 5", data)
    save_json(
        "fig5",
        {
            str(size): {str(c): series_to_jsonable(s) for c, s in panel.items()}
            for size, panel in data.items()
        },
    )


def cmd_fig6() -> None:
    print("E4 — Figure 6: incremental replication with clustering")
    data = fig6_series()
    _print_fig56("Figure 6", data)
    save_json(
        "fig6",
        {
            str(size): {str(c): series_to_jsonable(s) for c, s in panel.items()}
            for size, panel in data.items()
        },
    )


def cmd_ablate_proxy() -> None:
    print("A1 — proxy-pair overhead (per-object pairs vs one pair per cluster)")
    rows = ablations.ablate_proxy_pairs()
    print(
        render_table(
            ["chunk", "per-object (ms)", "clustered (ms)", "ratio"],
            [
                [r.chunk, r.per_object_ms, r.clustered_ms, f"{r.overhead_ratio:.2f}x"]
                for r in rows
            ],
        )
    )
    save_json("ablate_proxy", [vars(r) for r in rows])


def cmd_ablate_prefetch() -> None:
    print("A2 — prefetching vs demand-driven faulting")
    result = ablations.ablate_prefetch()
    print(
        render_table(
            ["strategy", "total (ms)", "worst invocation (ms)"],
            [
                ["demand-driven", result.demand_total_ms, result.demand_worst_invocation_ms],
                ["prefetched", result.prefetch_total_ms, result.prefetch_worst_invocation_ms],
            ],
        )
    )
    print(f"  fault latency eliminated from invocation path: {result.latency_eliminated}")
    save_json("ablate_prefetch", vars(result))


def cmd_ablate_consistency() -> None:
    print("A3 — consistency protocol cost (50 writes x 5 reads)")
    rows = ablations.ablate_consistency()
    print(
        render_table(
            ["protocol", "time (ms)", "network bytes", "stale reads"],
            [[r.protocol, r.total_ms, r.network_bytes, r.stale_reads] for r in rows],
        )
    )
    save_json("ablate_consistency", [vars(r) for r in rows])


def cmd_ablate_transport() -> None:
    print("A4 — transport sanity (same workload, both transports)")
    rows = ablations.ablate_transport()
    print(
        render_table(
            ["transport", "wall (s)", "sum", "correct"],
            [[r.transport, f"{r.wall_seconds:.3f}", r.traversal_sum, r.correct] for r in rows],
        )
    )
    save_json("ablate_transport", [vars(r) for r in rows])


def cmd_future_networks() -> None:
    from repro.bench.future_work import network_conditions_study

    print("F1 — network-conditions study (paper Section 6 future work)")
    rows = network_conditions_study()
    print(
        render_table(
            ["network", "best chunk", "best chunk (ms)", "best cluster", "best cluster (ms)"],
            [
                [
                    r.network,
                    r.best_chunk,
                    r.chunk_totals_ms[r.best_chunk],
                    r.best_cluster,
                    r.cluster_totals_ms[r.best_cluster],
                ]
                for r in rows
            ],
        )
    )
    save_json(
        "future_networks",
        [
            {
                "network": r.network,
                "chunks": r.chunk_totals_ms,
                "clusters": r.cluster_totals_ms,
            }
            for r in rows
        ],
    )


def cmd_future_cpu() -> None:
    from repro.bench.future_work import cpu_speed_study

    print("F2 — processor-speed study (paper Section 6 future work)")
    rows = cpu_speed_study()
    print(
        render_table(
            ["cpu slowdown", "RMI/LMI crossover", "best chunk", "LMI setup (ms)"],
            [
                [f"x{r.cpu_factor:g}", r.rmi_vs_lmi_crossover, r.best_chunk, r.lmi_setup_ms]
                for r in rows
            ],
        )
    )
    save_json("future_cpu", [vars(r) for r in rows])


def cmd_strategy_study() -> None:
    from repro.bench.strategies import session_length_sweep

    print("A5 — access-strategy study (the run-time RMI/LMI choice, quantified)")
    sweep = session_length_sweep()
    rows = []
    for length, results in sweep.items():
        for result in results:
            rows.append(
                [
                    length,
                    result.strategy,
                    result.simulated_ms,
                    result.network_bytes,
                    f"{result.documents_touched}/{result.documents_moved}",
                ]
            )
    print(
        render_table(
            ["session ops", "strategy", "time (ms)", "bytes", "touched/moved"], rows
        )
    )
    for length, results in sweep.items():
        winner = min(results, key=lambda r: r.simulated_ms)
        print(f"  {length} ops → {winner.strategy} wins ({winner.simulated_ms:.0f} ms)")
    save_json(
        "strategy_study",
        {str(length): [vars(r) for r in results] for length, results in sweep.items()},
    )


def cmd_fault_batching() -> None:
    from repro.bench.fault_batching import fault_batching_report

    print("P2 — batched demand & prefetching fault resolver")
    report = fault_batching_report()
    baseline, batched = report["baseline"], report["prefetch"]
    print(
        render_table(
            ["walk", "fault round trips", "wall clock (ms)", "bytes sent"],
            [
                [r["label"], r["fault_round_trips"], f"{r['wall_clock_ms']:.1f}", r["bytes_sent"]]
                for r in (baseline, batched)
            ],
        )
    )
    print(
        f"  round trips cut {report['round_trip_reduction']:.1f}x, "
        f"wall clock {report['wall_clock_speedup']:.2f}x"
    )
    save_json("fault_batching", report)


def cmd_tracing_overhead() -> None:
    from repro.bench.tracing_overhead import tracing_overhead_report

    print("P5 — obitrace cost on the fault path (wall clock, not simulated)")
    report = tracing_overhead_report().jsonable()
    print(
        render_table(
            ["tracing", "walk wall clock (ms)", "spans"],
            [
                ["off", f"{report['disabled_wall_ms']:.1f}", 0],
                ["on", f"{report['enabled_wall_ms']:.1f}", report["spans_per_walk"]],
            ],
        )
    )
    print(
        f"  no-op span {report['null_span_ns']:.0f} ns -> est. disabled overhead "
        f"{report['est_disabled_overhead_pct']:.3f}% (< 2% budget); "
        f"enabled overhead {report['enabled_overhead_pct']:.1f}%"
    )
    save_json("tracing_overhead", report)


def cmd_memory_study() -> None:
    from repro.bench.memory_study import memory_study

    print("A6 — memory-footprint study (info-appliance, partial access)")
    rows = memory_study()
    print(
        render_table(
            ["chunk", "time (ms)", "replica memory (B)", "objects held", "overshoot"],
            [
                [r.chunk, r.time_ms, r.memory_bytes, r.objects_held, f"{r.overshoot:.2f}x"]
                for r in rows
            ],
        )
    )
    save_json("memory_study", [vars(r) for r in rows])


COMMANDS = {
    "anchors": cmd_anchors,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "ablate-proxy": cmd_ablate_proxy,
    "ablate-prefetch": cmd_ablate_prefetch,
    "ablate-consistency": cmd_ablate_consistency,
    "ablate-transport": cmd_ablate_transport,
    "future-networks": cmd_future_networks,
    "future-cpu": cmd_future_cpu,
    "strategy-study": cmd_strategy_study,
    "memory-study": cmd_memory_study,
    "fault-batching": cmd_fault_batching,
    "tracing-overhead": cmd_tracing_overhead,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    args = parser.parse_args(argv)
    if args.command == "all":
        for name, command in COMMANDS.items():
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            command()
    else:
        COMMANDS[args.command]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
