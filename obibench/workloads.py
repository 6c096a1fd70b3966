"""The four workloads.

Ground rules (``README.md`` has the reasons):

* the program as shipped — ``World.tcp()`` and ``create_site()`` with no
  arguments, no runtime knob set anywhere;
* closed loop — OBIWAN's API is synchronous, every client blocks on its
  own call; one client thread, two on ``sync_mix``;
* seeded inputs — what a unit does is a pure function of
  ``(seed, workload, client, unit index)``, see :func:`unit_rng`;
* every unit checks what it wrote; a failed check is a failed operation
  and its latency is dropped.

A *unit* is the loop body (session, pass, block); it is made of *ops*,
each timed as a ``read`` (state comes local) or a ``write`` (state goes
back to its master).
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import asdict
from time import perf_counter_ns

from repro import feed, mobility, obiwan
from repro.mobility import ReconcileAction

from obibench import layers, models
from obibench.spans import BENCH, Tracer

#: How long a session waits for its edits to show on both followers.
VISIBILITY_TIMEOUT_S = 10.0


def unit_rng(seed: int, workload: str, client: int, index: int) -> random.Random:
    """The input stream of one unit.  String seeds hash deterministically."""
    return random.Random(f"{seed}/{workload}/{client}/{index}")


class Recorder:
    """Latencies, attempts and failures of one client thread."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.samples_ns: dict[str, list[int]] = defaultdict(list)
        self.payload_bytes: Counter[str] = Counter()
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, kind: str, fn: Callable, *args: object, name: str | None = None) -> object:
        """Run and time one operation; returns its result, or ``None``
        after counting a failure (no workload op returns ``None``)."""
        self.attempted += 1
        start = perf_counter_ns()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                with self.tracer.span(BENCH, name or kind):
                    result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the boundary that counts failures
            self._fail(f"{name or kind}: {type(exc).__name__}: {exc}")
            return None
        self.samples_ns[kind].append(perf_counter_ns() - start)
        return result

    def reject(self, kind: str, why: str) -> None:
        """The last ``kind`` op returned, but its output was wrong."""
        self.samples_ns[kind].pop()
        self._fail(why)

    def gate(self, ok: bool, why: str) -> bool:
        """An untimed correctness check, counted as an operation."""
        self.attempted += 1
        if not ok:
            self._fail(why)
        return ok

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)


class Workload:
    """Base: a world, its long-lived sites, and the unit loop body."""

    name = ""
    #: Generator threads; never more than ``nproc`` on the reference box.
    clients = 1
    #: Untimed units each client runs before timing starts.
    warmup_units = 1
    #: What one counted operation is (``wire_bytes_per_op`` divides by it).
    op_unit = ""
    #: Tail percentile of unit/read/write timings, pinned per workload so a
    #: faster run (more samples) does not silently switch to a higher one.
    #: None is above p95: on the reference box about one operation in a
    #: hundred is stalled by other work on the CPU, which put p99 on a knife
    #: edge (it doubled from one run to the next while p50 moved 2 %).
    tail_pct = {"unit": 75.0, "read": 75.0, "write": 75.0}

    def __init__(self, seed: int, tracer: Tracer | None = None, *, smoke: bool = False):
        self.seed = seed
        self.tracer = tracer
        self.smoke = smoke
        self.world: obiwan.World | None = None
        #: Telemetry of sites already retired, summed field by field.
        self.retired: Counter[str] = Counter()
        self._site_serial = 0
        self._spent: list[obiwan.Site] = []
        self.size()

    def size(self) -> None:
        """Fix the workload's sizes (``smoke`` shrinks them eightfold).
        Separate from :meth:`setup` so that :meth:`plan`, a pure function
        of the seed, needs no world."""

    # -- world plumbing -------------------------------------------------
    def new_world(self) -> obiwan.World:
        self.world = obiwan.World.tcp()
        if self.tracer is not None:
            layers.instrument_network(self.tracer, self.world.network)
        return self.world

    def fresh_site(self, prefix: str) -> obiwan.Site:
        """A site that lives for one unit; :meth:`cleanup` retires it."""
        self._site_serial += 1
        site = self.world.create_site(f"{prefix}{self._site_serial}")
        self._spent.append(site)
        return site

    def cleanup(self) -> None:
        """Detach the per-unit sites, keeping their counters for the
        ledger.  The runner calls this between units, outside any timing:
        it is the benchmark's bookkeeping, not the user's session.

        A real mobile site is its own process and takes its memory with
        it when it exits.  Here every site shares one interpreter, so the
        dead site has to be made collectable by hand: the network keeps a
        topology listener per site and has no call to remove one, which
        would pin each spent site with all its replicas, and the growing
        heap would slow every later unit.  Collecting right away keeps
        that garbage out of the next unit's timings.
        """
        if not self._spent:
            return
        network = self.world.network
        listeners = getattr(network, "_topology_listeners", None)
        for site in self._spent:
            self.retired.update(_numeric(asdict(obiwan.snapshot(site))))
            site.endpoint.close()
            self.world.sites.pop(site.name, None)
            if listeners is not None:
                listeners[:] = [cb for cb in listeners if getattr(cb, "__self__", None) is not site]
        self._spent.clear()
        del site
        gc.collect()

    def telemetry(self) -> Counter[str]:
        """Summed telemetry of every site this workload ever created."""
        total = Counter(self.retired)
        for site in self.world.sites.values():
            total.update(_numeric(asdict(obiwan.snapshot(site))))
        return total

    def rng(self, client: int, index: int) -> random.Random:
        return unit_rng(self.seed, self.name, client, index)

    # -- to implement ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, rec: Recorder, client: int, index: int) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> dict[str, float]:
        """End-of-run gates; returns extra counters for the ledger."""
        return {}

    def close(self) -> None:
        if self.world is not None:
            self.world.close()
            self.world = None


def _numeric(fields: dict[str, object]) -> dict[str, float]:
    return {
        key: value
        for key, value in fields.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


# ----------------------------------------------------------------------
# mobile_session
# ----------------------------------------------------------------------
class MobileSession(Workload):
    """Hoard, go offline, edit, reconnect, wait for the followers."""

    name = "mobile_session"
    op_unit = "session"

    ENTRIES = 512
    TEXT_BYTES = 256
    CHUNK = 8
    EDIT_SHARE = 0.10

    def size(self) -> None:
        self.entries = self.ENTRIES // 8 if self.smoke else self.ENTRIES
        self.edits_per_session = max(1, round(self.entries * self.EDIT_SHARE))
        self.conflicts = 0

    def setup(self) -> None:
        world = self.new_world()
        world.create_site("NS")  # the name service outlives any primary
        self.primary_site = world.create_site("P")
        head = models.make_agenda(self.entries, self.TEXT_BYTES, self.rng(0, -2))
        self.primary_site.export(head, name="agenda")
        self.primary_site.feed_primary()
        self.followers = [
            world.create_site("F1").feed_follow("P"),
            world.create_site("F2").feed_follow("P"),
        ]

    def plan(self, client: int, index: int) -> list[tuple[int, str]]:
        """The session's offline edits: ``(entry index, new text)``."""
        rng = self.rng(client, index)
        chosen = sorted(rng.sample(range(self.entries), self.edits_per_session))
        return [(i, models.fixed_text(rng, self.TEXT_BYTES)) for i in chosen]

    def unit(self, rec: Recorder, client: int, index: int) -> None:
        self._session(rec, self.fresh_site("M"), self.plan(client, index))

    def _session(self, rec: Recorder, site: obiwan.Site, plan: list[tuple[int, str]]) -> None:
        node = mobility.MobileNode(site)
        members = rec.op("read", self._hoard, node, name="hoard")
        if members is None:
            return
        rec.payload_bytes["read"] += len(members) * self.TEXT_BYTES
        if not rec.gate(len(members) == self.entries, "hoard is incomplete"):
            return

        node.go_offline(voluntary=True)
        edits = []
        for entry_index, text in plan:
            entry = members[entry_index]
            entry.text = text
            entry.done = True
            edits.append((obiwan.obi_id_of(entry), text))

        report = rec.op("write", self._reconnect, node, edits, name="reconnect")
        if report is None:
            return
        rec.payload_bytes["write"] += len(edits) * self.TEXT_BYTES
        self.conflicts += len(report.conflicts)
        pushed = report.count(ReconcileAction.PUSHED)
        clean = report.count(ReconcileAction.UP_TO_DATE)
        if pushed != len(edits) or pushed + clean != len(report.actions):
            rec.reject("write", f"reconcile report {report!r} for {len(edits)} edits")
        elif not self._visible(self.primary_site, edits):
            rec.reject("write", "an offline edit is missing on the primary")
        else:
            rec.ops += 1

    def _hoard(self, node: mobility.MobileNode) -> list[models.AgendaEntry]:
        """``hoard()`` call until the node may go offline."""
        root = node.hoard("agenda", obiwan.Incremental(self.CHUNK))
        while not node.hoard_store.is_complete("agenda"):
            node.prefetch(root)
        members = []
        entry = root
        while entry is not None:
            node.reconciler.track(entry)
            members.append(entry)
            entry = entry.next
        return members

    def _reconnect(self, node: mobility.MobileNode, edits: list[tuple[str, str]]) -> object:
        """``go_online()`` until both followers mirror every edit."""
        report = node.go_online()
        deadline = time.monotonic() + VISIBILITY_TIMEOUT_S
        while not all(self._visible(f.site, edits) for f in self.followers):
            if time.monotonic() > deadline:
                raise TimeoutError("offline edits did not reach both followers")
            time.sleep(0.0005)
        return report

    @staticmethod
    def _visible(site: obiwan.Site, edits: list[tuple[str, str]]) -> bool:
        for oid, text in edits:
            master = site.master_object_for(oid)
            if master is None or master.text != text or not master.done:
                return False
        return True

    def finish(self, rec: Recorder) -> dict[str, float]:
        lag = max(int(f.site.feed_stats.snapshot()["lag_serials"]) for f in self.followers)
        rec.gate(lag == 0, f"followers lag {lag} serials at the end")
        return {"feed.lag_max_serials": lag, "mobility.conflicts": self.conflicts}


# ----------------------------------------------------------------------
# fault_walk
# ----------------------------------------------------------------------
class FaultWalk(Workload):
    """Paper Fig. 5: walk a list one object fault at a time."""

    name = "fault_walk"
    op_unit = "fault"
    tail_pct = {"unit": 75.0, "read": 95.0, "write": 75.0}

    LENGTH = 1000
    PAYLOAD_BYTES = 64

    def size(self) -> None:
        self.length = self.LENGTH // 8 if self.smoke else self.LENGTH

    def setup(self) -> None:
        world = self.new_world()
        self.provider = world.create_site("P")
        self.head = models.make_walk_list(self.length, self.PAYLOAD_BYTES)
        self.provider.export(self.head, name="list")

    def plan(self, client: int, index: int) -> bytes:
        """The payload the pass writes back onto the head."""
        return self.rng(client, index).randbytes(self.PAYLOAD_BYTES)

    def unit(self, rec: Recorder, client: int, index: int) -> None:
        self._pass(rec, self.fresh_site("C"), self.plan(client, index))

    def _pass(self, rec: Recorder, site: obiwan.Site, payload: bytes) -> None:
        head = site.replicate("list", obiwan.Incremental(1))
        call = site.invoke_local
        total = call(head, "get_index")
        node = head
        faults = 0
        while True:
            nxt = call(node, "get_next")
            if nxt is None:
                break
            # ``nxt`` is an unresolved proxy-out: its first method call is
            # the object fault, one demand round trip.
            value = rec.op("read", call, nxt, "get_index", name="fault")
            if value is None:
                return
            total += value
            faults += 1
            node = nxt
        rec.payload_bytes["read"] += faults * self.PAYLOAD_BYTES
        if not rec.gate(
            total == self.length * (self.length - 1) // 2 and faults == self.length - 1,
            f"walk summed {total} over {faults} faults",
        ):
            return
        rec.ops += faults

        # One small put with no feed role anywhere: the control for the
        # put path of ``sync_mix``.
        head.payload = payload
        if rec.op("write", site.put_back, head, name="put_back") is None:
            return
        rec.payload_bytes["write"] += self.PAYLOAD_BYTES
        if self.head.payload != payload:
            rec.reject("write", "put_back did not reach the master")


# ----------------------------------------------------------------------
# bulk_sync
# ----------------------------------------------------------------------
class BulkSync(Workload):
    """Whole-cluster get and put of a few megabytes."""

    name = "bulk_sync"
    op_unit = "pass"

    DEPTH = 10
    PAYLOAD_BYTES = 2048

    def size(self) -> None:
        self.depth = self.DEPTH - 3 if self.smoke else self.DEPTH

    def setup(self) -> None:
        world = self.new_world()
        self.provider = world.create_site("P")
        self.root, self.node_count = models.make_bulk_tree(
            self.depth, self.PAYLOAD_BYTES, self.rng(0, -2)
        )
        self.masters = models.bulk_nodes(self.root)
        self.provider.export(self.root, name="big")
        self.payload_bytes = self.node_count * self.PAYLOAD_BYTES

    def plan(self, client: int, index: int) -> int:
        """The stamp the pass writes onto every node."""
        return models.fixed_int(self.rng(client, index))

    def unit(self, rec: Recorder, client: int, index: int) -> None:
        self._pass(rec, self.fresh_site("C"), self.plan(client, index))

    def _pass(self, rec: Recorder, site: obiwan.Site, stamp: int) -> None:
        root = rec.op("read", site.replicate, "big", obiwan.Cluster(), name="replicate")
        if root is None:
            return
        rec.payload_bytes["read"] += self.payload_bytes
        nodes = models.bulk_nodes(root)
        if len(nodes) != self.node_count:
            rec.reject("read", f"cluster arrived with {len(nodes)} nodes")
            return
        for node in nodes:
            node.stamp = stamp
        if rec.op("write", site.put_back_cluster, root, name="put_back_cluster") is None:
            return
        rec.payload_bytes["write"] += self.payload_bytes
        if any(master.stamp != stamp for master in self.masters):
            rec.reject("write", "a master missed the cluster put")
        else:
            rec.ops += 1


# ----------------------------------------------------------------------
# sync_mix
# ----------------------------------------------------------------------
class SyncMix(Workload):
    """Two clients refresh, put and write through a follower, side by side."""

    name = "sync_mix"
    clients = 2
    warmup_units = 20  # 200 operations
    op_unit = "op"
    tail_pct = {"unit": 90.0, "read": 95.0, "write": 95.0}

    RECORDS = 256
    BLOB_BYTES = 1024
    #: One block = 5 refreshes, 4 puts, 1 write-through, in seeded order.
    #: A fixed mix per block keeps bytes per op independent of the seed.
    BLOCK = ("refresh",) * 5 + ("put",) * 4 + ("put_through",)
    ACKED_WRITES = 5

    def size(self) -> None:
        self.records = self.RECORDS // 8 if self.smoke else self.RECORDS

    def setup(self) -> None:
        world = self.new_world()
        world.create_site("NS")
        self.primary_site = world.create_site("P")
        self.masters = models.make_records(self.records, self.BLOB_BYTES, self.rng(0, -2))
        for record in self.masters:
            self.primary_site.export(record, name=f"rec-{record.key}")
        self.primary = self.primary_site.feed_primary()
        self.followers = [
            world.create_site("F1").feed_follow("P"),
            world.create_site("F2").feed_follow("P"),
        ]
        self.oids = [obiwan.obi_id_of(record) for record in self.masters]
        self.sites = [world.create_site(f"C{c}") for c in range(self.clients)]
        self.replicas = [
            [site.replicate(f"rec-{key}") for key in range(self.records)] for site in self.sites
        ]

    def plan(self, client: int, index: int) -> list[tuple[str, int, str, int]]:
        """One block: ``(op, record key, field, value)`` per operation.

        Refreshes touch any record; writes stay in the client's own half
        of the key space, so two clients never write one record.
        """
        rng = self.rng(client, index)
        kinds = list(self.BLOCK)
        rng.shuffle(kinds)
        half = self.records // self.clients
        ops = []
        for kind in kinds:
            if kind == "refresh":
                key = rng.randrange(self.records)
            else:
                key = client * half + rng.randrange(half)
            ops.append((kind, key, rng.choice(models.RECORD_EDIT_FIELDS), models.fixed_int(rng)))
        return ops

    def unit(self, rec: Recorder, client: int, index: int) -> None:
        site = self.sites[client]
        replicas = self.replicas[client]
        follower = self.followers[client % len(self.followers)]
        for kind, key, field, value in self.plan(client, index):
            if kind == "refresh":
                done = rec.op("read", site.refresh, replicas[key], name="refresh")
                if done is not None:
                    rec.payload_bytes["read"] += self.BLOB_BYTES
            elif kind == "put":
                setattr(replicas[key], field, value)
                done = rec.op("write", site.put_back, replicas[key], name="put_back")
                if done is not None:
                    rec.payload_bytes["write"] += self.BLOB_BYTES
            else:
                mirror = follower.site.master_object_for(self.oids[key])
                setattr(mirror, field, value)
                done = rec.op("put_through", follower.put_through, mirror)
            if done is not None:
                rec.ops += 1

    def finish(self, rec: Recorder) -> dict[str, float]:
        """Convergence, then a failover that must lose no acked write."""
        followers = self.followers
        sites = [self.primary_site] + [f.site for f in followers]
        diverged = 0
        for oid in self.oids:
            prints = {
                site.fingerprinter.of_object(site.master_object_for(oid)) for site in sites
            }
            diverged += len(prints) != 1
        rec.gate(diverged == 0, f"{diverged} records differ across P, F1, F2")
        lag = max(int(f.site.feed_stats.snapshot()["lag_serials"]) for f in followers)
        rec.gate(lag == 0, f"followers lag {lag} serials at the end")

        rng = self.rng(0, -3)
        acked = []
        for key in rng.sample(range(self.records), self.ACKED_WRITES):
            mirror = followers[0].site.master_object_for(self.oids[key])
            mirror.f1 = models.fixed_int(rng)
            followers[0].put_through(mirror)
            acked.append((self.oids[key], mirror.f1))

        self.primary.detach()  # the primary dies
        start = perf_counter_ns()
        reply = feed.fail_over(followers, reason="obibench: primary died")
        promote_ms = (perf_counter_ns() - start) / 1e6
        new_primary = self.world.sites[reply.site_id]
        survivor = next(f.site for f in followers if f.site.name != reply.site_id)
        probe = new_primary.master_object_for(self.oids[0])
        probe.f4 = models.fixed_int(rng)
        new_primary.touch(probe)  # the first write of the new epoch fans out
        lost = sum(
            1 for oid, value in acked if new_primary.master_object_for(oid).f1 != value
        )
        rec.gate(lost == 0, f"{lost} acknowledged writes lost in failover")
        rec.gate(
            survivor.master_object_for(self.oids[0]).f4 == probe.f4,
            "the new primary's first write did not reach the surviving follower",
        )
        return {
            "feed.lag_max_serials": lag,
            "feed.promote_ms": promote_ms,
            "feed.acked_writes_lost": lost,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (MobileSession, FaultWalk, BulkSync, SyncMix)
}
