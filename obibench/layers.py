"""The per-layer ledger: what is wrapped, and what is computed from it.

A *layer* is a package under ``src/repro``.  Nothing inside the program
is edited: :func:`instrument` replaces the public callables at each
layer boundary with span-recording wrappers (process-wide and for good —
a traced run is its own interpreter), and :func:`ledger` turns the spans
plus the program's own counters into the metrics ``BENCHMARK.json``
lists under ``per_layer``.

Counts are reported per operation of the workload (unit ``1/op``): a run
lasts a fixed time, so raw totals grow with speed and never repeat, while
calls per operation repeat exactly for one seed.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Callable, Iterable

from repro.core import replication
from repro.core.runtime import Site
from repro.core.striping import StripeLock
from repro.feed import apply as feed_apply
from repro.feed import failover as feed_failover
from repro.feed.follower import FeedFollower
from repro.mobility.node import MobileNode
from repro.mobility.reconcile import Reconciler
from repro.rmi.endpoint import RmiEndpoint
from repro.rmi.skeleton import ObjectTable
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder

from obibench.spans import BENCH, Span, Tracer, attribute, self_times
from obibench.stats import metric, percentile

LAYERS = ("serial", "rmi", "simnet", "core", "feed", "mobility")

#: A ledger below this coverage, or above this overhead, is not data.
MIN_COVERAGE = 0.9
MAX_OVERHEAD_PCT = 30.0

_MARK = "__obibench_traced__"


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _replace(owner: object, name: str, make: Callable[[Callable], Callable]) -> None:
    """``owner.name = make(owner.name)``, once however often it is asked."""
    original = getattr(owner, name)
    if not getattr(original, _MARK, False):
        traced = make(original)
        setattr(traced, _MARK, True)
        setattr(owner, name, traced)


def _method(tracer: Tracer, layer: str, cls: type, name: str, **how: Callable) -> None:
    _replace(cls, name, lambda fn: tracer.wrap(layer, f"{cls.__name__}.{name}", fn, **how))


def _function(tracer: Tracer, layer: str, module: object, name: str) -> None:
    """Wrap a module-level function everywhere it was imported by name."""
    original = getattr(module, name)
    if getattr(original, _MARK, False):
        return
    traced = tracer.wrap(layer, name, original)
    setattr(traced, _MARK, True)
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "").startswith("repro"):
            continue
        if getattr(other, name, None) is original:
            setattr(other, name, traced)


def _invoked_method(args: tuple, _kwargs: dict) -> str:
    return str(args[2])  # (endpoint, ref, method, ...)


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary except the transport's, which needs the
    world's network object (:func:`instrument_network`)."""
    _method(tracer, "serial", Encoder, "encode", size=lambda a, k, r: len(r))
    _method(tracer, "serial", Decoder, "decode", size=lambda a, k, r: len(a[1]))

    _method(tracer, "rmi", RmiEndpoint, "invoke", label=_invoked_method)
    _method(tracer, "rmi", RmiEndpoint, "invoke_async", label=_invoked_method)
    _method(tracer, "rmi", ObjectTable, "dispatch", label=lambda a, k: a[1].method)

    for name in ("replicate", "resolve_fault", "put_back", "put_back_cluster", "refresh", "touch"):
        _method(tracer, "core", Site, name)
    for name in ("build_package", "integrate_package", "build_put", "apply_put"):
        _function(tracer, "core", replication, name)
    _replace(
        StripeLock,
        "acquire",
        lambda fn: tracer.wrap_if_waited("core", "StripeLock.acquire", fn, lambda lock: lock.waits),
    )

    for name in ("handle_events", "put_through", "promote"):
        _method(tracer, "feed", FeedFollower, name)
    _function(tracer, "feed", feed_apply, "apply_feed_frame")
    _function(tracer, "feed", feed_failover, "fail_over")

    for name in ("hoard", "prefetch", "go_online"):
        _method(tracer, "mobility", MobileNode, name)
    for name in ("reconcile", "is_dirty", "track"):
        _method(tracer, "mobility", Reconciler, name)


def instrument_network(tracer: Tracer, network: object) -> None:
    """Wrap the world's transport: ``call``/``submit`` on the client
    side, and the handler every site attaches with on the server side.

    Patches the class of whatever network ``World.tcp()`` built, so a
    later change of the default transport is traced without an edit here.
    """
    cls = type(network)
    for name in ("call", "submit"):
        _replace(cls, name, lambda fn, name=name: tracer.wrap_transport(f"Network.{name}", fn))

    def handler_wrapping(attach: Callable) -> Callable:
        def traced_attach(self: object, site_id: str, handler: Callable) -> object:
            return attach(self, site_id, tracer.wrap_handler(site_id, handler))

        return traced_attach

    _replace(cls, "attach", handler_wrapping)


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def _pct(samples_ns: list[int], pct: float) -> dict:
    """A percentile in microseconds; 0 when the span never occurred."""
    if not samples_ns:
        return metric(0.0, "us", 0)
    return metric(percentile(samples_ns, pct) / 1e3, "us", len(samples_ns))


def _mb_per_s(spans: list[Span]) -> dict:
    busy_ns = sum(s.duration_ns for s in spans)
    if not busy_ns:
        return metric(0.0, "MB/s", 0)
    return metric(sum(s.nbytes for s in spans) / 1e6 / (busy_ns / 1e9), "MB/s", len(spans))


def ledger(
    spans: Iterable[Span],
    counters: dict[str, float],
    extra: dict[str, float],
    *,
    ops: int,
    traced_unit_ms: float,
    untraced_unit_ms: float,
) -> dict[str, dict]:
    """Every ``per_layer`` metric of one traced run.

    ``counters`` are the program's own counters over the traced stretch
    (site telemetry summed over sites, plus the network's), ``extra`` what
    the workload's end-of-run gates measured, ``ops`` the operations the
    stretch completed.
    """
    spans = list(spans)
    ops = max(1, ops)
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        by_name[span.name.partition(":")[0] + ":*"].append(span)
        if span.parent_id:
            children[span.parent_id].append(span)

    def named(*names: str) -> list[Span]:
        return [s for name in names for s in by_name.get(name, ())]

    def durations(*names: str) -> list[int]:
        return [s.duration_ns for s in named(*names)]

    def selves(*names: str) -> list[int]:
        return [own[s.span_id] for s in named(*names)]

    def descendants(span: Span) -> Iterable[Span]:
        stack = list(children.get(span.span_id, ()))
        while stack:
            child = stack.pop()
            yield child
            stack.extend(children.get(child.span_id, ()))

    def ancestor(span: Span, names: tuple[str, ...]) -> Span | None:
        while span.parent_id:
            span = by_id[span.parent_id]
            if span.name in names:
                return span
        return None

    units = [s for s in spans if s.layer == BENCH and not s.parent_id]
    out: dict[str, dict] = {}

    def per_op(count: float) -> dict:
        return metric(count / ops, "1/op", int(count))

    # -- serial ----------------------------------------------------------
    encodes, decodes = named("Encoder.encode"), named("Decoder.decode")
    out["serial.encode_us_p50"] = _pct([s.duration_ns for s in encodes], 50)
    out["serial.decode_us_p50"] = _pct([s.duration_ns for s in decodes], 50)
    out["serial.encode_mb_per_s"] = _mb_per_s(encodes)
    out["serial.decode_mb_per_s"] = _mb_per_s(decodes)
    out["serial.bytes_encoded"] = metric(sum(s.nbytes for s in encodes) / ops, "B/op", len(encodes))
    out["serial.encode_calls"] = per_op(len(encodes))
    out["serial.fast_encodes"] = per_op(counters.get("serial_fast_encodes", 0))

    # -- rmi -------------------------------------------------------------
    invokes = named("RmiEndpoint.invoke:*", "RmiEndpoint.invoke_async:*")
    out["rmi.invoke_self_us_p50"] = _pct([own[s.span_id] for s in invokes], 50)
    out["rmi.invoke_self_us_p99"] = _pct([own[s.span_id] for s in invokes], 99)
    out["rmi.dispatch_self_us_p50"] = _pct(selves("ObjectTable.dispatch:*"), 50)
    out["rmi.invoke_calls"] = per_op(len(invokes))
    out["rmi.invoke_failures"] = per_op(sum(1 for s in invokes if not s.ok))

    # -- simnet ----------------------------------------------------------
    calls = named("Network.call")
    # Transit = client call minus the handler that served it; a call whose
    # handler could not be linked would count server time as transit.
    transit = [
        own[s.span_id]
        for s in calls
        if any(c.name == "handler" for c in children.get(s.span_id, ()))
    ]
    out["simnet.transit_us_p50"] = _pct(transit, 50)
    out["simnet.transit_us_p99"] = _pct(transit, 99)
    out["simnet.calls"] = per_op(len(calls))
    out["simnet.messages"] = per_op(counters.get("wire_messages", 0))
    out["simnet.bytes_on_wire"] = metric(counters.get("wire_bytes", 0) / ops, "B/op")
    out["simnet.connections_created"] = per_op(counters.get("connections_created", 0))
    out["simnet.connections_reused"] = per_op(counters.get("connections_reused", 0))

    # -- core ------------------------------------------------------------
    out["core.replicate_self_us_p50"] = _pct(selves("Site.replicate"), 50)
    out["core.fault_resolve_self_us_p50"] = _pct(selves("Site.resolve_fault"), 50)
    out["core.build_package_us_p50"] = _pct(durations("build_package"), 50)
    out["core.integrate_package_us_p50"] = _pct(durations("integrate_package"), 50)
    out["core.build_put_us_p50"] = _pct(durations("build_put"), 50)
    out["core.apply_put_us_p50"] = _pct(durations("apply_put"), 50)
    out["core.stripe_wait_us_p99"] = _pct(durations("StripeLock.acquire"), 99)
    for field in ("stripe_acquire_waits", "faults_resolved", "puts_full", "puts_delta",
                  "refreshes_full", "refreshes_delta"):
        out[f"core.{field}"] = per_op(counters.get(field, 0))

    # -- feed ------------------------------------------------------------
    out["feed.apply_us_p50"] = _pct(durations("FeedFollower.handle_events"), 50)
    # Pushing, as the put that caused it paid for it: every feed_events
    # invoke under one apply_put/touch, minus the follower's handler time.
    fanout: dict[int, int] = defaultdict(int)
    for push in named("RmiEndpoint.invoke:feed_events", "RmiEndpoint.invoke_async:feed_events"):
        cause = ancestor(push, ("apply_put", "Site.touch"))
        if cause is None:
            continue
        served = sum(d.duration_ns for d in descendants(push) if d.name == "handler")
        fanout[cause.span_id] += max(0, push.duration_ns - served)
    out["feed.fanout_self_us_p50"] = _pct(list(fanout.values()), 50)
    throughs = named("FeedFollower.put_through")
    out["feed.put_through_us_p50"] = _pct([s.duration_ns for s in throughs], 50)
    out["feed.echo_wait_us_p50"] = _pct(
        [
            max(0, s.duration_ns - sum(
                c.duration_ns for c in children.get(s.span_id, ())
                if c.name == "RmiEndpoint.invoke:put"
            ))
            for s in throughs
        ],
        50,
    )
    out["feed.frames_pushed"] = per_op(counters.get("feed_frames_pushed", 0))
    out["feed.frames_applied"] = per_op(counters.get("feed_frames_applied", 0))
    out["feed.push_failures"] = per_op(counters.get("feed_push_failures", 0))
    out["feed.lag_max_serials"] = metric(extra.get("feed.lag_max_serials", 0), "count")
    out["feed.promote_ms"] = metric(extra.get("feed.promote_ms", 0.0), "ms")
    out["feed.acked_writes_lost"] = metric(extra.get("feed.acked_writes_lost", 0), "count")

    # -- mobility --------------------------------------------------------
    reconciles = named("Reconciler.reconcile")
    probes = named("RmiEndpoint.invoke:get_version")
    out["mobility.reconcile_self_us_per_object"] = metric(
        sum(own[s.span_id] for s in reconciles) / 1e3 / len(probes) if probes else 0.0,
        "us",
        len(probes),
    )
    out["mobility.fingerprint_us_p50"] = _pct(durations("Reconciler.is_dirty"), 50)
    out["mobility.prefetch_rounds"] = per_op(len(named("MobileNode.prefetch")))
    out["mobility.version_probes"] = per_op(len(probes))
    pushes = [s for s in named("Site.put_back") if ancestor(s, ("Reconciler.reconcile",))]
    out["mobility.pushed"] = per_op(len(pushes))
    out["mobility.conflicts"] = per_op(extra.get("mobility.conflicts", 0))

    # -- where the time went ----------------------------------------------
    where = attribute(spans, own)
    for layer in LAYERS + (BENCH,):
        share = where.layer_self_ns.get(layer, 0) / where.unit_ns if where.unit_ns else 0.0
        out[f"{layer}.self_share"] = metric(share, "share")
    overhead = (traced_unit_ms / untraced_unit_ms - 1.0) * 100.0 if untraced_unit_ms else 0.0
    out["trace.coverage"] = metric(where.coverage, "share", len(units))
    out["trace.unattributed_s"] = metric(where.unattributed_ns / 1e9, "s")
    out["trace.overhead_pct"] = metric(overhead, "%")
    out["trace.spans"] = metric(len(spans), "count")
    out["trace.ops"] = metric(ops, "count")
    out["trace.reliable"] = metric(
        int(where.coverage >= MIN_COVERAGE and overhead <= MAX_OVERHEAD_PCT), "count"
    )
    return out
