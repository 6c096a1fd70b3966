"""The frame-level bridge: TraceRecorder.filter and .to_spans.

The network recorder and the span collector watch the same run from two
altitudes; the bridge must let the two views join (by request id) and
reconcile (REQUEST frames vs invoke spans).
"""

from __future__ import annotations

from repro.core.interfaces import Incremental
from repro.obs.assemble import assemble_traces
from repro.simnet.message import MessageKind
from repro.simnet.trace import TraceRecorder
from tests.models import make_chain


def _run_walk(world, provider, consumer):
    with TraceRecorder(world.network) as recorder:
        provider.export(make_chain(4), name="chain")
        node = consumer.replicate("chain", mode=Incremental(1))
        while node is not None:
            node.get_index()
            node = node.get_next()
    return recorder


def test_filter_isolates_one_round_trip(world):
    provider, consumer = world.create_site("S2"), world.create_site("S1")
    recorder = _run_walk(world, provider, consumer)
    request = next(
        e for e in recorder.events if e.kind is MessageKind.REQUEST
    )
    frames = recorder.filter(request_id=request.request_id)
    assert [f.kind for f in frames] == [MessageKind.REQUEST, MessageKind.RESPONSE]
    assert frames[0].src == frames[1].dst == "S1"


def test_filter_criteria_compose(world):
    provider, consumer = world.create_site("S2"), world.create_site("S1")
    recorder = _run_walk(world, provider, consumer)
    requests = recorder.filter(kind=MessageKind.REQUEST, src="S1", dst="S2")
    assert len(requests) == len(
        [e for e in recorder.events if e.kind is MessageKind.REQUEST]
    )
    assert recorder.filter(src="nowhere") == []


def test_to_spans_pairs_round_trips(world):
    provider, consumer = world.create_site("S2"), world.create_site("S1")
    recorder = _run_walk(world, provider, consumer)
    spans = recorder.to_spans(trace_id="trace:net")

    round_trips = [s for s in spans if s.kind == "net.round_trip"]
    requests = [e for e in recorder.events if e.kind is MessageKind.REQUEST]
    assert len(round_trips) == len(requests)
    for span in round_trips:
        assert span.trace_id == "trace:net"
        assert span.parent_id is None
        assert span.site == "S1"  # the requester's side
        assert span.duration > 0
        assert span.attributes["dst"] == "S2"
        assert span.attributes["bytes_out"] > 0
        assert span.attributes["bytes_in"] > 0

    # sorted on (start, seq) — assemble-ready
    assert spans == sorted(spans, key=lambda s: (s.start, s.seq))
    [trace] = assemble_traces(spans)
    assert len(trace.roots) == len(spans)


def test_to_spans_reconciles_with_invoke_spans(world):
    """Frame count == span count for the same walk, recorded both ways."""
    provider, consumer = world.create_site("S2"), world.create_site("S1")
    collector = consumer.enable_tracing()
    recorder = _run_walk(world, provider, consumer)

    invoke_spans = [s for s in collector.spans() if s.kind == "rmi.invoke"]
    net_spans = recorder.to_spans()
    assert len(net_spans) == len(invoke_spans)
    assert all(s.kind == "net.round_trip" for s in net_spans)
