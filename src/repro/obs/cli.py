"""The ``obitrace`` command line.

::

    obitrace record                         # trace a 3-site fault cascade
    obitrace record --chunk 16 --format chrome --out cascade.json
    obitrace analyze cascade.jsonl          # re-render an earlier export

``record`` runs the canonical mobility workload — S1 masters the paper's
linked list, S2 incrementally replicates and walks it (the fault
cascade), then re-exports its replica so S3 replicates *through* S2 —
with tracing enabled on every site, and renders the assembled cross-site
trace: indented timeline, critical path, per-kind time attribution, and
the frame/span reconciliation (every request frame on the wire must be
some recorded ``rmi.invoke`` span).

``analyze`` re-loads a ``--format jsonl`` export and renders the same
analysis offline.  Exit codes: 0 ok, 1 reconciliation or workload
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from repro.bench.workloads import ListSpec, list_values_sum, make_linked_list
from repro.core.interfaces import Incremental
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from repro.obs.assemble import Trace, assemble_traces, gather_spans
from repro.obs.critical_path import critical_path, slow_spans, time_by_kind
from repro.obs.export import from_jsonl, to_chrome_json, to_jsonl
from repro.obs.spans import Span, SpanCollector
from repro.simnet.message import MessageKind
from repro.simnet.trace import TraceRecorder

#: Span kinds that correspond one-to-one with REQUEST frames on the wire.
REQUEST_SPAN_KINDS = ("rmi.invoke",)


@dataclass
class CascadeRecording:
    """Everything ``record`` captured about one traced workload run."""

    #: The workload's cross-site trace (root span kind ``workload``).
    trace: Trace
    #: Every assembled trace, workload included.
    traces: list[Trace]
    #: The pooled span list behind :attr:`traces`.
    spans: list[Span]
    #: Per-site collectors, by site name.
    collectors: dict[str, SpanCollector]
    #: REQUEST frames the network moved while recording.
    request_frames: int
    #: Recorded spans of the kinds in :data:`REQUEST_SPAN_KINDS`.
    request_spans: int
    #: Walk checksums, by walking site.
    sums: dict[str, int]

    @property
    def reconciled(self) -> bool:
        """Frame/span agreement: each request frame has its invoke span."""
        return self.request_frames == self.request_spans


def _walk(site, node) -> int:
    total = 0
    while node is not None:
        total += site.invoke_local(node, "get_index")
        node = site.invoke_local(node, "get_next")
        if isinstance(node, ProxyOutBase) and node._obi_resolved is not None:
            node = node._obi_resolved
    return total


def record_cascade(
    *,
    length: int = 32,
    object_size: int = 64,
    chunk: int = 1,
) -> CascadeRecording:
    """Run the 3-site incremental-replication workload with tracing on.

    S1 masters the list and hosts the name server; S2 replicates under
    ``Incremental(chunk)`` and walks it — one fault
    cascade against S1 — then exports its replica as ``relay``; S3
    replicates ``relay`` and walks, faulting against S2.  The whole run
    sits under one ``workload`` root span, so assembly yields a single
    trace spanning all three sites.
    """
    world = World.loopback()
    s1 = world.create_site("S1")
    s2 = world.create_site("S2")
    s3 = world.create_site("S3")
    collectors = {site.name: site.enable_tracing() for site in (s1, s2, s3)}
    s1.export(make_linked_list(ListSpec(length, object_size)), name="list")

    mode = Incremental(chunk)
    sums: dict[str, int] = {}
    with TraceRecorder(world.network) as recorder:
        with s2.tracer.span(
            "workload", name=f"cascade length={length} chunk={chunk}"
        ) as root:
            head2 = s2.replicate("list", mode=mode)
            sums["S2"] = _walk(s2, head2)
            s2.export(head2, name="relay")
            head3 = s3.replicate("relay", mode=mode)
            sums["S3"] = _walk(s3, head3)
            root.set(sum_s2=sums["S2"], sum_s3=sums["S3"])
        request_frames = len(
            [e for e in recorder.events if e.kind is MessageKind.REQUEST]
        )
    world.close()

    expected = list_values_sum(length)
    for site_name, total in sums.items():
        if total != expected:
            raise AssertionError(
                f"walk checksum at {site_name} is {total}, expected {expected}"
            )

    spans = gather_spans(*collectors.values())
    traces = assemble_traces(spans)
    workload = next(t for t in traces if t.roots and t.root.kind == "workload")
    return CascadeRecording(
        trace=workload,
        traces=traces,
        spans=spans,
        collectors=collectors,
        request_frames=request_frames,
        request_spans=sum(1 for s in spans if s.kind in REQUEST_SPAN_KINDS),
        sums=sums,
    )


def render_analysis(trace: Trace, *, slow_ms: float | None = None) -> str:
    """Timeline + critical path + per-kind attribution for one trace."""
    sections = [trace.render(), "", critical_path(trace).render()]
    attribution = time_by_kind(trace.spans)
    if attribution:
        sections.append("")
        sections.append("self time by kind:")
        for kind, seconds in attribution.items():
            sections.append(f"  {kind:<18s} {seconds * 1e3:9.3f}ms")
    counts = trace.count_by_kind()
    sections.append("")
    sections.append(
        "span counts: "
        + ", ".join(f"{kind}={n}" for kind, n in sorted(counts.items()))
    )
    if slow_ms is not None:
        flagged = slow_spans(trace.spans, slow_ms / 1e3)
        sections.append("")
        sections.append(f"spans ≥ {slow_ms:g}ms: {len(flagged)}")
        for span in flagged[:20]:
            sections.append(
                f"  {span.site:>12s} {span.kind} {span.name} "
                f"+{span.duration * 1e3:.3f}ms"
            )
    return "\n".join(sections)


def _cmd_record(args: argparse.Namespace) -> int:
    recording = record_cascade(
        length=args.length,
        object_size=args.object_size,
        chunk=args.chunk,
    )
    if args.format == "chrome":
        text = to_chrome_json(recording.spans)
    elif args.format == "jsonl":
        text = to_jsonl(recording.spans)
    else:
        text = render_analysis(recording.trace, slow_ms=args.slow_ms)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.format} trace to {args.out}")
    else:
        print(text)
    stats = {name: c.stats() for name, c in sorted(recording.collectors.items())}
    print(
        "collectors: "
        + ", ".join(
            f"{name} {s['recorded']} recorded/{s['dropped']} dropped"
            for name, s in stats.items()
        )
    )
    print(
        f"reconciliation: {recording.request_frames} request frames vs "
        f"{recording.request_spans} invoke spans -> "
        + ("OK" if recording.reconciled else "MISMATCH")
    )
    return 0 if recording.reconciled else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        spans = from_jsonl(fh.read())
    traces = assemble_traces(spans)
    if not traces:
        print("no spans in export")
        return 1
    for trace in traces:
        print(render_analysis(trace, slow_ms=args.slow_ms))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="obitrace",
        description="Causal tracing for the OBIWAN replication fault path.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="trace the 3-site fault-cascade workload"
    )
    record.add_argument("--length", type=int, default=32, help="list length")
    record.add_argument(
        "--object-size", type=int, default=64, help="bytes per list object"
    )
    record.add_argument("--chunk", type=int, default=1, help="incremental chunk size")
    record.add_argument(
        "--format",
        choices=("timeline", "chrome", "jsonl"),
        default="timeline",
        help="output format (chrome loads in Perfetto / chrome://tracing)",
    )
    record.add_argument("--out", metavar="FILE", help="write output to FILE")
    record.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="flag spans at or above this duration (timeline format)",
    )
    record.set_defaults(func=_cmd_record)

    analyze = sub.add_parser("analyze", help="re-render a jsonl export")
    analyze.add_argument("file", help="a --format jsonl export")
    analyze.add_argument("--slow-ms", type=float, default=None)
    analyze.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
