"""A put is one frame, and references to the destination's own objects
travel as bare oids.

A reference the writer holds to an object whose provider is the put's
destination — another entry, the entry itself, a replica of the same
provider, a still-unresolved proxy-out for it — leaves as its oid and
exports nothing; the master re-links it to its own object.  Everything
else (objects created at the writer, third-site replicas and proxy-outs)
still leaves as a proxy-out descriptor and arrives as a working proxy-out.
"""

# obilint: disable-file=OBI204 -- the property's reference put and the forged-oid test hand-build put traffic from replicas acquired above

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.interfaces import Cluster, Incremental, ReplicationMode
from repro.core.meta import obi_id_of
from repro.core.proxy_out import ProxyOutBase
from repro.core.replication import OID_KIND, PackagingSwizzler, SiteUnswizzler, build_put
from repro.core.runtime import World
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.swizzle import SwizzleDescriptor
from repro.util.errors import UnknownReplicaError
from tests.models import Box, Chain, Counter, Folder, GraphNode, make_chain


def _sized(site):
    return len(site.endpoint.objects)


class TestBareOids:
    def test_a_cluster_put_exports_nothing_at_the_writer(self, zsites):
        provider, consumer = zsites
        provider.export(make_chain(40), name="chain")
        root = consumer.replicate("chain", mode=Cluster())
        node = root
        while node is not None:
            node.payload = b"stamped"
            node = node.next
        exported = _sized(consumer)
        versions = consumer.put_back_cluster(root)
        assert len(versions) == 40
        assert _sized(consumer) == exported
        assert consumer.gc_stats.faults_resolved == 0

    def test_references_to_the_destination_resolve_to_its_own_objects(self, zsites):
        provider, consumer = zsites
        masters = make_chain(3)
        second_master, third_master = masters.next, masters.next.next
        provider.export(masters, name="chain")
        head = consumer.replicate("chain", mode=Incremental(2))
        second = head.next
        assert isinstance(second.next, ProxyOutBase)  # the frontier, provider S2
        head.set_next(head)  # a self-reference
        head.index, second.index = 10, 11
        package = build_put(consumer, [head, second], "S2")
        assert package.payload.count(OID_KIND.encode()) == 2
        exported = _sized(consumer)
        consumer.put_back_many([head, second])
        assert _sized(consumer) == exported
        assert (masters.index, second_master.index) == (10, 11)
        assert masters.next is masters  # itself, not the temporary it decoded
        assert second_master.next is third_master

    def test_an_oid_the_destination_does_not_hold_is_rejected_whole(self, zsites):
        provider, consumer = zsites
        masters = make_chain(2)
        provider.export(masters, name="chain")
        provider.export(Counter(0), name="counter")
        head = consumer.replicate("chain", mode=Incremental(2))
        counter = consumer.replicate("counter")
        head.index = 7
        counter.increment(5)
        provider.drop_master(obi_id_of(masters.next))  # head.next now names nothing
        head_log = provider.change_log.latest_serial
        with pytest.raises(UnknownReplicaError, match=obi_id_of(masters.next)):
            consumer.put_back_many([counter, head])
        assert masters.index == 0
        assert provider.master_object_for(obi_id_of(counter)).read() == 0
        assert provider.version_of(masters) == 1
        assert provider.change_log.latest_serial == head_log

    @pytest.mark.parametrize("forged", [42, "oid-nobody-has", None])
    def test_a_forged_oid_is_rejected_typed(self, zsites, forged):
        provider, consumer = zsites
        master = Box(1)
        provider.export(master, name="box")
        replica = consumer.replicate("box")
        package = build_put(consumer, [replica], "S2")

        class Forger:
            def swizzle(self, value):
                if isinstance(value, Chain):
                    return SwizzleDescriptor(OID_KIND, forged)
                return None

        state = Box(Chain(1))
        vars(state)["_obi_id"] = obi_id_of(replica)
        package.payload = Encoder(consumer.registry, Forger()).encode([state])
        ref = consumer.replica_info(obi_id_of(replica)).provider
        with pytest.raises(UnknownReplicaError):
            consumer.endpoint.invoke(ref, "put", (package,))
        assert master.get() == 1
        assert provider.version_of(master) == 1

    def test_writer_and_third_site_objects_arrive_as_working_proxy_outs(self, zero_world):
        provider = zero_world.create_site("P")
        third = zero_world.create_site("T")
        consumer = zero_world.create_site("C")
        folder = Folder("docs")
        provider.export(folder, name="folder")
        third.export(Counter(30), name="counter")
        third.export(make_chain(2), name="third-chain")

        replica = consumer.replicate("folder")
        mine = Counter(5)  # created at the writer
        remote = consumer.replicate("counter")  # a replica of a third site
        third_head = consumer.replicate("third-chain", mode=Incremental(1))
        frontier = third_head.next  # an unresolved proxy-out, provider T
        replica.add("mine", mine)
        replica.add("remote", remote)
        replica.add("frontier", frontier)
        consumer.put_back(replica)

        held = folder.index
        assert all(isinstance(held[key], ProxyOutBase) for key in ("mine", "remote", "frontier"))
        assert held["mine"]._obi_provider.site_id == "C"
        assert held["frontier"]._obi_provider.site_id == "T"
        assert held["mine"].read() == 5
        assert held["remote"].read() == 30
        assert held["frontier"].get_index() == 1
        assert folder.children == [held["mine"], held["remote"], held["frontier"]]


# ----------------------------------------------------------------------
# the property: one frame + bare oids = per-entry frames + proxy-outs
# ----------------------------------------------------------------------
_TARGETS = ("entry", "p_proxy", "third_replica", "third_proxy", "local")


@st.composite
def write_backs(draw):
    """A replica graph: ``n`` entries, ``x`` unreplicated provider nodes,
    ``t`` third-site nodes, ``k`` writer-created nodes, new ``refs`` for
    every entry (self-references, cycles and repeats allowed) and pairs of
    entries that end up sharing one ``refs`` list."""
    n = draw(st.integers(1, 5))
    sizes = {"entry": n, "p_proxy": draw(st.integers(1, 3)), "third_replica": 2,
             "third_proxy": 2, "local": draw(st.integers(1, 3))}
    target = st.sampled_from(_TARGETS).flatmap(
        lambda kind: st.tuples(st.just(kind), st.integers(0, sizes[kind] - 1))
    )
    refs = draw(st.lists(st.lists(target, max_size=4), min_size=n, max_size=n))
    initial = draw(st.lists(st.lists(st.integers(0, n + sizes["p_proxy"] - 1), max_size=3),
                            min_size=n, max_size=n))
    shared = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    values = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n))
    return sizes, refs, initial, shared, values


def _scenario(spec):
    """One world with its replicas wired per ``spec``: (world, P, C, masters,
    replicas)."""
    sizes, refs, initial, shared, values = spec
    world = World.loopback(costs=CostModel.zero())
    provider, third, consumer = (world.create_site(name) for name in ("P", "T", "C"))

    def node(oid, value=0):
        obj = GraphNode(value)
        vars(obj)["_obi_id"] = oid
        return obj

    masters = [node(f"g{i}") for i in range(sizes["entry"])]
    extras = [node(f"x{i}") for i in range(sizes["p_proxy"])]
    pool = masters + extras
    for master, links in zip(masters, initial):
        master.refs = [pool[j] for j in links] + list(extras)
    for i, master in enumerate(masters):
        provider.export(master, name=f"g{i}")
    thirds = [node(f"t{i}", 100 + i) for i in range(sizes["third_replica"])]
    far = [node(f"u{i}", 200 + i) for i in range(sizes["third_proxy"])]
    t_head = node("t-head")
    t_head.refs = list(far)
    for i, obj in enumerate(thirds):
        third.export(obj, name=f"t{i}")
    third.export(t_head, name="t-head")

    replicas = [consumer.replicate(f"g{i}", Incremental(1)) for i in range(len(masters))]
    pending = {p._obi_target_id: p for r in replicas for p in r.refs if isinstance(p, ProxyOutBase)}
    p_proxies = [pending[f"x{i}"] for i in range(sizes["p_proxy"])]
    t_replicas = [consumer.replicate(f"t{i}", Incremental(1)) for i in range(len(thirds))]
    t_proxies = list(consumer.replicate("t-head", Incremental(1)).refs)
    locals_ = [node(f"l{i}", 300 + i) for i in range(sizes["local"])]
    pick = {"entry": replicas, "p_proxy": p_proxies, "third_replica": t_replicas,
            "third_proxy": t_proxies, "local": locals_}
    for replica, links, value in zip(replicas, refs, values):
        replica.value = value
        replica.refs = [pick[kind][index] for kind, index in links]
    for i, j in shared:
        replicas[i].refs = replicas[j].refs
    return world, provider, consumer, masters, replicas


def _reference_put(consumer, provider, replicas):
    """The per-entry put: one instance frame per entry, of a shallow copy
    whose every reference is a proxy-out descriptor; each decoded and
    lifted on its own."""
    swizzler = PackagingSwizzler(consumer, set())
    encoder = Encoder(consumer.registry, swizzler)
    decoder = Decoder(provider.registry, SiteUnswizzler(provider, ReplicationMode()))
    for replica in replicas:
        copy = type(replica).__new__(type(replica))
        vars(copy).update(vars(replica))
        swizzler.member_ids = {id(copy)}
        state = decoder.decode(encoder.encode(copy))
        master = provider.master_object_for(obi_id_of(replica))
        assert type(state) is type(master)
        oid = vars(master)["_obi_id"]
        vars(master).clear()
        vars(master).update(vars(state))
        vars(master)["_obi_id"] = oid


def _final_lists(spec):
    """Which generated ``refs`` list each entry holds once sharing is applied."""
    lists = list(range(len(spec[1])))
    for i, j in spec[3]:
        lists[i] = lists[j]
    return lists


@given(write_backs())
@settings(max_examples=60, deadline=None)
def test_one_frame_put_reaches_the_per_entry_digests(spec):
    world, provider, consumer, masters, replicas = _scenario(spec)
    ref_world, ref_provider, ref_consumer, ref_masters, ref_replicas = _scenario(spec)
    try:
        exported = _sized(consumer)
        consumer.put_back_many(replicas)
        _reference_put(ref_consumer, ref_provider, ref_replicas)

        prints = provider.fingerprinter
        for master, ref_master, replica in zip(masters, ref_masters, replicas):
            digest = prints.of_object(master)
            assert digest == prints.of_object(ref_master) == prints.of_object(replica)

        lists = _final_lists(spec)
        links = [spec[1][index] for index in lists]
        # Only writer-created objects and third-site replicas were exported.
        assert _sized(consumer) - exported == len(
            {pair for held in links for pair in held if pair[0] in ("local", "third_replica")}
        )
        # Entries sharing one list before the put share one list after it.
        for i, master in enumerate(masters):
            for j, other in enumerate(masters):
                assert (master.refs is other.refs) == (lists[i] == lists[j])
        # References to the provider's objects are the provider's objects.
        for master, held in zip(masters, links):
            for ref, (kind, index) in zip(master.refs, held):
                if kind == "entry":
                    assert ref is masters[index]
                elif kind == "p_proxy":
                    assert ref is provider.master_object_for(f"x{index}")
                else:
                    assert isinstance(ref, ProxyOutBase)
    finally:
        world.close()
        ref_world.close()
