"""Spans recorded from outside the program, and the arithmetic on them.

The traced run wraps the public callables at each layer boundary (see
:mod:`obibench.layers`).  A wrapper pushes onto a thread-local stack, so
nesting gives parent links for free; spans stay in one in-memory list
and are written out, if asked, when the workload ends.

A span is the tuple :data:`SPAN_FIELDS`.  Spans of one benchmark unit
share its ``trace_id``.  A transport handler runs on a server thread
with an empty stack; it is linked to the client's transport span through
the ``(src, dst)`` site pair, which is unambiguous while that pair has a
single call in flight.  When it is not, the handler span is kept as a
root of its own and its time is reported as unattributed, not guessed.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple

#: Layer name of the spans the benchmark opens around its own units and
#: operations; everything else is named after a module under ``src/repro``.
BENCH = "bench"


class Span(NamedTuple):
    trace_id: int
    span_id: int
    parent_id: int  # 0 = root
    layer: str
    name: str
    thread: int
    start_ns: int
    end_ns: int
    nbytes: int
    ok: bool

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


SPAN_FIELDS = Span._fields

Labeler = Callable[[tuple, dict], str]
Sizer = Callable[[tuple, dict, object], int]


class Tracer:
    """Collects spans; hands out wrappers for the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self._tls = threading.local()
        self._next_id = itertools.count(1).__next__
        #: ``(src, dst)`` -> ``[thread, trace_id, span_id]`` per call in flight.
        self._inflight: dict[tuple[str, str], list[list[int]]] = defaultdict(list)
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[int, int]]:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def _open(self, link: tuple[int, int] | None = None) -> tuple[int, int, int]:
        """Push a new span; returns ``(trace_id, span_id, parent_id)``."""
        stack = self._stack()
        span_id = self._next_id()
        if stack:
            trace_id, parent_id = stack[-1]
        elif link is not None:
            trace_id, parent_id = link
        else:
            trace_id, parent_id = span_id, 0
        stack.append((trace_id, span_id))
        return trace_id, span_id, parent_id

    def _close(
        self, ids: tuple[int, int, int], layer: str, name: str, start: int, nbytes: int, ok: bool
    ) -> None:
        end = perf_counter_ns()
        self._tls.stack.pop()
        self.spans.append(
            Span(ids[0], ids[1], ids[2], layer, name, threading.get_ident(), start, end, nbytes, ok)
        )

    @contextmanager
    def span(self, layer: str, name: str):
        """Open a span around a block of the benchmark's own code."""
        ids = self._open()
        start = perf_counter_ns()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(ids, layer, name, start, 0, ok)

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        *,
        label: Labeler | None = None,
        size: Sizer | None = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``label`` refines the span name from the call's arguments;
        ``size`` reads a byte count off arguments and result.
        """

        def traced(*args: object, **kwargs: object) -> object:
            ids = self._open()
            start = perf_counter_ns()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(
                    ids,
                    layer,
                    name if label is None else f"{name}:{label(args, kwargs)}",
                    start,
                    size(args, kwargs, result) if size is not None and ok else 0,
                    ok,
                )

        return traced

    def wrap_if_waited(
        self, layer: str, name: str, fn: Callable, waited: Callable[[object], int]
    ) -> Callable:
        """``fn(self)`` with a span only for the calls that blocked.

        For a lock's ``acquire``: it runs far too often to span every
        call, and only the contended ones took time worth attributing.
        ``waited(self)`` is the lock's own count of blocking acquires.
        """

        def traced(target: object) -> object:
            before = waited(target)
            start = perf_counter_ns()
            result = fn(target)
            if waited(target) != before:
                self._close(self._open(), layer, name, start, 0, True)
            return result

        return traced

    # ------------------------------------------------------------------
    # transport: client call -> server handler, across threads
    # ------------------------------------------------------------------
    def wrap_transport(self, name: str, fn: Callable) -> Callable:
        """Wrap ``network.call``/``submit``: ``fn(self, src, dst, payload, ...)``.

        While the call is in flight its span is the link target for the
        handler that serves it at ``dst``.  ``submit`` may run ``call``
        inside itself on the same thread; the inner span then takes the
        registration over, so the handler hangs off the innermost one.
        """

        def traced(network: object, src: str, dst: str, payload: bytes, **kwargs: object) -> object:
            trace_id, span_id, parent_id = ids = self._open()
            me = threading.get_ident()
            with self._inflight_lock:
                entries = self._inflight[(src, dst)]
                mine = next((e for e in entries if e[0] == me), None)
                outer = None
                if mine is None:
                    mine = [me, trace_id, span_id]
                    entries.append(mine)
                else:
                    outer = mine[2]
                    mine[2] = span_id
            start = perf_counter_ns()
            result = None
            ok = False
            try:
                result = fn(network, src, dst, payload, **kwargs)
                ok = True
                return result
            finally:
                with self._inflight_lock:
                    if outer is None:
                        entries.remove(mine)
                    else:
                        mine[2] = outer
                nbytes = len(payload) + (len(result) if isinstance(result, bytes) else 0)
                self._close(ids, "simnet", name, start, nbytes, ok)

        return traced

    def wrap_handler(self, site_id: str, handler: Callable) -> Callable:
        """Wrap the inbound-frame handler a site attaches with."""

        def traced(message: object) -> object:
            link = None
            if not self._stack():
                with self._inflight_lock:
                    entries = self._inflight.get((message.src, site_id), ())  # type: ignore[attr-defined]
                    if len(entries) == 1:
                        link = (entries[0][1], entries[0][2])
            ids = self._open(link)
            start = perf_counter_ns()
            ok = False
            try:
                result = handler(message)
                ok = True
                return result
            finally:
                self._close(ids, "simnet", "handler", start, 0, ok)

        return traced

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """One JSON array per span, one span per line, header first."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(list(SPAN_FIELDS)) + "\n")
            for span in self.spans:
                out.write(json.dumps(list(span)) + "\n")


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """``span_id -> self ns``: duration minus what its children cover.

    Children are the spans naming it as parent — on any thread, since a
    linked handler span is a child of the client's transport span.
    Children of one span never overlap here (the transport is
    synchronous), so their durations simply add up.
    """
    spans = list(spans)
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent_id:
            covered[span.parent_id] += span.duration_ns
    return {s.span_id: max(0, s.duration_ns - covered[s.span_id]) for s in spans}


class Attribution(NamedTuple):
    """Where the wall time of the traced units went."""

    unit_ns: int  # total duration of the unit root spans
    layer_self_ns: dict[str, int]  # self time per layer inside those units
    unattributed_ns: int  # duration of roots that are not units

    @property
    def coverage(self) -> float:
        """Share of unit wall time spent inside a wrapped program layer."""
        if not self.unit_ns:
            return 0.0
        inside = sum(ns for layer, ns in self.layer_self_ns.items() if layer != BENCH)
        return inside / self.unit_ns


def attribute(spans: Iterable[Span], own: dict[int, int] | None = None) -> Attribution:
    """Sum self times per layer; ``own`` is :func:`self_times` of the same
    spans when the caller already has it."""
    spans = list(spans)
    if own is None:
        own = self_times(spans)
    unit_traces = {s.trace_id for s in spans if not s.parent_id and s.layer == BENCH}
    unit_ns = 0
    unattributed_ns = 0
    layer_self: dict[str, int] = defaultdict(int)
    for span in spans:
        if span.trace_id in unit_traces:
            layer_self[span.layer] += own[span.span_id]
            if not span.parent_id:
                unit_ns += span.duration_ns
        elif not span.parent_id:
            unattributed_ns += span.duration_ns
    return Attribution(unit_ns, dict(layer_self), unattributed_ns)
