"""PR-2 experiment: batched demand & read-ahead prefetch on the list walk.

Replays the paper's Figure-5 workload (a 1000-object linked list,
chunk-1 incremental replication) twice — once demand-driven exactly as
the paper describes it, once with the ``prefetch`` knob on — and counts
what the fast path actually saves: demand round trips, simulated wall
clock, and bytes moved.  Round trips come from the network stats, not
from instrumentation inside the fault path, so the numbers hold the
resolver honest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.workloads import ListSpec, list_values_sum, make_linked_list
from repro.core.interfaces import Incremental
from repro.core.proxy_out import ProxyOutBase
from repro.core.runtime import World
from repro.simnet.link import LAN_10MBPS, Link

#: The acceptance configuration: read ahead 16 objects per demand.
DEFAULT_PREFETCH = 16
DEFAULT_LENGTH = 1000
DEFAULT_OBJECT_SIZE = 64


@dataclass(frozen=True, slots=True)
class WalkResult:
    """One full list traversal, measured."""

    label: str
    prefetch: int
    #: Demand round trips taken by faults (excludes the initial replicate).
    fault_round_trips: int
    #: All request messages consumer→provider, replicate included.
    total_round_trips: int
    wall_clock_ms: float
    bytes_sent: int
    bytes_received: int
    demands_batched: int
    prefetch_hits: int

    def jsonable(self) -> dict:
        return {
            "label": self.label,
            "prefetch": self.prefetch,
            "fault_round_trips": self.fault_round_trips,
            "total_round_trips": self.total_round_trips,
            "wall_clock_ms": round(self.wall_clock_ms, 3),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "demands_batched": self.demands_batched,
            "prefetch_hits": self.prefetch_hits,
        }


def run_walk(
    prefetch: int,
    *,
    length: int = DEFAULT_LENGTH,
    object_size: int = DEFAULT_OBJECT_SIZE,
    link: Link = LAN_10MBPS,
) -> WalkResult:
    """Traverse the full list under chunk-1 incremental replication."""
    world = World.loopback(link=link)
    provider = world.create_site("S2")
    consumer = world.create_site("S1")
    provider.export(make_linked_list(ListSpec(length, object_size)), name="list")

    stats = world.network.stats
    start = world.clock.now()
    node: object = consumer.replicate("list", mode=Incremental(1, prefetch=prefetch))
    after_replicate = stats.link(consumer.name, provider.name).messages
    total = 0
    while node is not None:
        total += consumer.invoke_local(node, "get_index")
        node = consumer.invoke_local(node, "get_next")
        if isinstance(node, ProxyOutBase) and node._obi_resolved is not None:
            node = node._obi_resolved
    elapsed_ms = (world.clock.now() - start) * 1e3
    if total != list_values_sum(length):
        raise AssertionError(f"traversal sum {total} wrong for length {length}")

    outbound = stats.link(consumer.name, provider.name)
    inbound = stats.link(provider.name, consumer.name)
    world.close()
    return WalkResult(
        label=f"prefetch={prefetch}" if prefetch else "demand-driven",
        prefetch=prefetch,
        fault_round_trips=outbound.messages - after_replicate,
        total_round_trips=outbound.messages,
        wall_clock_ms=elapsed_ms,
        bytes_sent=outbound.bytes,
        bytes_received=inbound.bytes,
        demands_batched=consumer.fault_stats.demands_batched,
        prefetch_hits=consumer.fault_stats.prefetch_hits,
    )


def fault_batching_report(
    prefetch: int = DEFAULT_PREFETCH,
    *,
    length: int = DEFAULT_LENGTH,
    object_size: int = DEFAULT_OBJECT_SIZE,
) -> dict:
    """Before/after comparison for the PR-2 acceptance numbers."""
    baseline = run_walk(0, length=length, object_size=object_size)
    batched = run_walk(prefetch, length=length, object_size=object_size)
    return {
        "workload": f"{length} objects x {object_size} B, chunk 1",
        "baseline": baseline.jsonable(),
        "prefetch": batched.jsonable(),
        "round_trip_reduction": round(
            baseline.fault_round_trips / max(1, batched.fault_round_trips), 2
        ),
        "wall_clock_speedup": round(
            baseline.wall_clock_ms / max(1e-9, batched.wall_clock_ms), 2
        ),
    }
