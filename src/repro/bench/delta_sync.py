"""PR-4 experiment: delta-encoded replica synchronization.

Replays a mobile write-back/refresh workload twice — once with the
legacy full-state ``put``/``get`` paths, once with the site's
``delta_sync`` knob on — and counts what the delta engine saves: bytes
on the wire, simulated wall clock, and which sync path each operation
actually took.  Bytes come from the network stats, not from the sync
counters, so the numbers hold the delta path honest; at the end both
runs must leave master and replica fingerprints identical (zero drift).

The workload is the delta-friendly shape the paper's mobility scenarios
imply: records dominated by a payload blob that rarely changes, synced
in working sets where only ~1% of the fields mutated since the last
sync.  Full-state put ships the blob every time; the delta path ships
the handful of small fields that changed, skips clean replicas
entirely, and answers clean refreshes with an empty delta.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.meta import obi_id_of
from repro.core.obicomp import compile_class
from repro.core.runtime import World
from repro.simnet.link import LAN_10MBPS, Link

DEFAULT_OBJECTS = 64
DEFAULT_BLOB_SIZE = 2048
DEFAULT_PUT_ROUNDS = 16
DEFAULT_REFRESH_ROUNDS = 8
DEFAULT_SEED = 402

#: Replicas the consumer writes back per round (its session working set).
WORKING_SET = 8
#: Field writes per round: ~1% of the 64 x 8 field slots.
MUTATIONS_PER_ROUND = 5


@compile_class
class SyncRecord:
    """The bench object: one heavy blob plus small mutable counters."""

    def __init__(self, index: int = 0, blob: bytes = b""):
        self.index = index
        self.blob = blob
        self.hits = 0
        self.misses = 0
        self.score = 0
        self.state = 0
        self.ticks = 0
        self.phase = 0

    def poke(self, field: str, value: int) -> None:
        """The measured write: one small field of a blob-heavy record."""
        setattr(self, field, value)


#: The small fields the workload mutates (the blob stays cold).
SCALAR_FIELDS = ("hits", "misses", "score", "state", "ticks", "phase")


@dataclass(frozen=True, slots=True)
class SyncResult:
    """One full put/refresh workload, measured."""

    label: str
    delta_sync: bool
    wall_clock_ms: float
    #: Sync-phase traffic only (initial replication excluded — it is
    #: byte-identical on both paths).
    bytes_on_wire: int
    messages: int
    puts_delta: int
    puts_full: int
    puts_noop: int
    refreshes_delta: int
    refreshes_full: int
    need_full_downgrades: int
    delta_bytes_saved: int
    fingerprints_match: bool

    def jsonable(self) -> dict:
        return {
            "label": self.label,
            "delta_sync": self.delta_sync,
            "wall_clock_ms": round(self.wall_clock_ms, 3),
            "bytes_on_wire": self.bytes_on_wire,
            "messages": self.messages,
            "puts_delta": self.puts_delta,
            "puts_full": self.puts_full,
            "puts_noop": self.puts_noop,
            "refreshes_delta": self.refreshes_delta,
            "refreshes_full": self.refreshes_full,
            "need_full_downgrades": self.need_full_downgrades,
            "delta_bytes_saved": self.delta_bytes_saved,
            "fingerprints_match": self.fingerprints_match,
        }


def run_sync(
    delta_sync: bool,
    *,
    objects: int = DEFAULT_OBJECTS,
    blob_size: int = DEFAULT_BLOB_SIZE,
    put_rounds: int = DEFAULT_PUT_ROUNDS,
    refresh_rounds: int = DEFAULT_REFRESH_ROUNDS,
    seed: int = DEFAULT_SEED,
    link: Link = LAN_10MBPS,
) -> SyncResult:
    """Run the put/refresh workload on one sync path.

    The mutation schedule is drawn from a seeded generator, so both
    paths replay the identical sequence of writes.
    """
    world = World.loopback(link=link)
    provider = world.create_site("master")
    consumer = world.create_site("mobile")
    provider.delta_sync = delta_sync
    consumer.delta_sync = delta_sync

    masters = [SyncRecord(index=i, blob=b"\xa5" * blob_size) for i in range(objects)]
    for i, master in enumerate(masters):
        provider.export(master, name=f"rec-{i}")
    replicas = [consumer.replicate(f"rec-{i}") for i in range(objects)]

    outbound = world.network.stats.link(consumer.name, provider.name)
    inbound = world.network.stats.link(provider.name, consumer.name)
    setup_bytes = outbound.bytes + inbound.bytes
    setup_messages = outbound.messages + inbound.messages

    rng = random.Random(seed)
    start = world.clock.now()

    # Phase 1 — write-back: mutate ~1% of the fields, then sync the
    # whole session working set (dirty and clean members alike; the
    # consumer does not know which records changed — that is the delta
    # engine's job).
    for _ in range(put_rounds):
        session = rng.sample(range(objects), WORKING_SET)
        for _ in range(MUTATIONS_PER_ROUND):
            index = rng.choice(session)
            field = rng.choice(SCALAR_FIELDS)
            consumer.invoke_local(replicas[index], "poke", field, rng.randrange(1 << 16))
        for index in session:
            consumer.put_back(replicas[index])

    # Phase 2 — refresh: the master application mutates ~1% of the
    # fields in place (announced via touch), then the consumer pulls
    # its entire replica set back in sync, as a mobile client does on
    # reconnect.
    for _ in range(refresh_rounds):
        touched: dict[int, set[str]] = {}
        for _ in range(MUTATIONS_PER_ROUND):
            index = rng.randrange(objects)
            field = rng.choice(SCALAR_FIELDS)
            masters[index].poke(field, rng.randrange(1 << 16))
            touched.setdefault(index, set()).add(field)
        for index, fields in touched.items():
            provider.touch(masters[index], fields=tuple(sorted(fields)))
        for replica in replicas:
            consumer.refresh(replica)

    elapsed_ms = (world.clock.now() - start) * 1e3

    drift = [
        i
        for i, (master, replica) in enumerate(zip(masters, replicas))
        if provider.fingerprinter.of_object(master)
        != consumer.fingerprinter.of_object(replica)
        or obi_id_of(master) != obi_id_of(replica)
    ]
    if drift:
        raise AssertionError(
            f"post-sync fingerprint drift on records {drift} (delta_sync={delta_sync})"
        )

    sync = consumer.sync_stats.snapshot()
    bytes_on_wire = outbound.bytes + inbound.bytes - setup_bytes
    messages = outbound.messages + inbound.messages - setup_messages
    world.close()
    return SyncResult(
        label="delta" if delta_sync else "full-state",
        delta_sync=delta_sync,
        wall_clock_ms=elapsed_ms,
        bytes_on_wire=bytes_on_wire,
        messages=messages,
        puts_delta=sync["puts_delta"],
        puts_full=sync["puts_full"],
        puts_noop=sync["puts_noop"],
        refreshes_delta=sync["refreshes_delta"],
        refreshes_full=sync["refreshes_full"],
        need_full_downgrades=sync["need_full_downgrades"],
        delta_bytes_saved=sync["delta_bytes_saved"],
        fingerprints_match=True,
    )


def delta_sync_report(
    *,
    objects: int = DEFAULT_OBJECTS,
    blob_size: int = DEFAULT_BLOB_SIZE,
    put_rounds: int = DEFAULT_PUT_ROUNDS,
    refresh_rounds: int = DEFAULT_REFRESH_ROUNDS,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Before/after comparison for the PR-4 acceptance numbers."""
    kwargs = dict(
        objects=objects,
        blob_size=blob_size,
        put_rounds=put_rounds,
        refresh_rounds=refresh_rounds,
        seed=seed,
    )
    baseline = run_sync(False, **kwargs)
    delta = run_sync(True, **kwargs)
    return {
        "workload": (
            f"{objects} records x {len(SCALAR_FIELDS) + 2} fields "
            f"(+{blob_size} B blob), {put_rounds} put rounds x "
            f"{WORKING_SET}-record working set + {refresh_rounds} "
            f"refresh-all rounds, ~1% field mutation per round"
        ),
        "baseline": baseline.jsonable(),
        "delta": delta.jsonable(),
        "bytes_reduction": round(
            baseline.bytes_on_wire / max(1, delta.bytes_on_wire), 2
        ),
        "wall_clock_speedup": round(
            baseline.wall_clock_ms / max(1e-9, delta.wall_clock_ms), 2
        ),
    }
