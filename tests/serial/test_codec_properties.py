"""Properties of the one codec, over generated object graphs.

Graphs mix schema classes (scalars, any slots) with a schema-less class,
share and cycle references, and hold ``None``, containers and proxy-out
stand-ins in any slots.  What must hold: decode(encode(g)) is isomorphic
to g — aliasing and memo-slot order included; a truncated frame raises
:class:`TruncatedFrameError` and nothing rawer; drifted instances take
the generic path and still round-trip; and the state fingerprints that
convergence checks and the reconciler compare are what they were before
the schema frame became the only frame.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obiwan
from repro.core.costs import CostModel
from repro.core.telemetry import SerialPathStats
from repro.mobility.reconcile import Reconciler
from repro.serial import tags
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.fingerprint import Fingerprinter
from repro.serial.registry import TypeRegistry
from repro.serial.swizzle import SwizzleDescriptor
from repro.util.errors import SerializationError, TruncatedFrameError
from tests.models import Chain, Folder


class Leaf:
    """All scalar."""

    def __init__(self, n: int = 0, label: str = ""):
        self.n = n
        self.label = label
        self.ratio = 0.5
        self.live = True
        self.blob = b""


class Node:
    """Scalars around two any slots."""

    def __init__(self, n: int = 0):
        self.n = n
        self.left = None
        self.tag = "node"
        self.right = None


class Opaque:
    """No schema: custom state, the generic ``OBJECT`` frame."""

    def __init__(self, held=None):
        self.held = held

    def __getstate__(self):
        return [self.held]

    def __setstate__(self, state):
        (self.held,) = state


class Stub:
    """Stands in for a proxy-out: travels as a swizzle descriptor."""

    def __init__(self, target: str):
        self.target = target


class _Hooks:
    def swizzle(self, value):
        if type(value) is Stub:
            return SwizzleDescriptor("test.stub", value.target)
        return None

    def unswizzle(self, descriptor):
        assert descriptor.kind == "test.stub"
        return Stub(descriptor.data)


_registry = TypeRegistry()
for _cls in (Leaf, Node, Opaque):
    _registry.register(_cls)
_encoder = Encoder(_registry, _Hooks())
_decoder = Decoder(_registry, _Hooks())


# ----------------------------------------------------------------------
# generated graphs
# ----------------------------------------------------------------------
_SLOTS = {Node: ("left", "right"), Opaque: ("held",)}


@st.composite
def graphs(draw):
    """A list of objects wired at random, plus the root value to encode."""
    count = draw(st.integers(min_value=1, max_value=8))
    objects = []
    for index in range(count):
        kind = draw(st.sampled_from(("leaf", "node", "opaque", "stub", "list", "dict")))
        if kind == "leaf":
            leaf = Leaf(draw(st.integers(-(2**63), 2**63 - 1)), draw(st.text(max_size=8)))
            leaf.blob = draw(st.binary(max_size=8))
            objects.append(leaf)
        elif kind == "node":
            objects.append(Node(index))
        elif kind == "opaque":
            objects.append(Opaque())
        elif kind == "stub":
            objects.append(Stub(f"oid:{index}"))
        elif kind == "list":
            objects.append([])
        else:
            objects.append({})
    # Wire references — any object may point at any other, itself included.
    pick = st.one_of(st.none(), st.integers(0, count - 1))
    for obj in objects:
        for slot in _SLOTS.get(type(obj), ()):
            target = draw(pick)
            setattr(obj, slot, None if target is None else objects[target])
        if type(obj) is list:
            obj.extend(objects[i] for i in draw(st.lists(st.integers(0, count - 1), max_size=3)))
        elif type(obj) is dict:
            for i in draw(st.lists(st.integers(0, count - 1), max_size=3)):
                obj[f"k{i}"] = objects[i]
    return objects


def _shape(root):
    """A canonical description of a graph: every identity-bearing value
    numbered in first-visit (= memo-slot) order, references by number."""
    numbers: dict[int, int] = {}
    out = []

    def visit(value):
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return ("scalar", type(value).__name__, value)
        if id(value) in numbers:
            return ("ref", numbers[id(value)])
        number = numbers[id(value)] = len(numbers)
        if type(value) is Stub:
            out.append((number, "stub", value.target))
        elif type(value) is list:
            out.append((number, "list", [visit(v) for v in value]))
        elif type(value) is dict:
            out.append((number, "dict", [(k, visit(v)) for k, v in value.items()]))
        else:
            out.append(
                (number, type(value).__name__, [(k, visit(v)) for k, v in vars(value).items()])
            )
        return ("ref", number)

    return visit(root), sorted(out)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_roundtrip_is_isomorphic_including_aliasing_and_memo_order(objects):
    decoded = _decoder.decode(_encoder.encode(objects))
    assert _shape(decoded) == _shape(objects)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_frames_are_deterministic_and_stats_count_every_object(objects):
    stats = SerialPathStats()
    frame = Encoder(_registry, _Hooks(), stats=stats).encode(objects)
    assert frame == _encoder.encode(objects)
    assert stats.encodes_fast == sum(type(o) in (Leaf, Node) for o in objects)
    assert stats.encodes_reflective == sum(type(o) is Opaque for o in objects)
    Decoder(_registry, _Hooks(), stats=stats).decode(frame)
    assert stats.decodes_fast == stats.encodes_fast


@given(graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_any_prefix_of_any_frame_fails_typed(objects, data):
    frame = _encoder.encode(objects)
    cut = data.draw(st.integers(0, len(frame) - 1))
    # Truncation, or a prefix that ends on a dangling reference.
    with pytest.raises(SerializationError):
        _decoder.decode(frame[:cut])


# ----------------------------------------------------------------------
# compiled frames, byte by byte
# ----------------------------------------------------------------------
def _compiled_frame() -> bytes:
    root = Node(1)
    root.left = Leaf(-5, "héllo")
    root.left.blob = b"\x00\xff"
    root.right = Node(2)
    root.right.left = root  # a cycle through an any slot
    vars(root)["_obi_id"] = "oid:root"
    frame = _encoder.encode(root)
    assert frame[0] == tags.OBJECT_SCHEMA
    return frame


def test_every_strict_prefix_of_a_compiled_frame_is_a_truncated_frame():
    """``TruncatedFrameError`` at every byte — never ``struct.error``,
    ``IndexError``, ``UnicodeDecodeError`` or a milder complaint."""
    frame = _compiled_frame()
    for cut in range(len(frame)):
        with pytest.raises(TruncatedFrameError):
            _decoder.decode(frame[:cut])


def test_flipped_schema_hash_is_refused():
    frame = bytearray(_compiled_frame())
    name = _registry.lookup_class(Node).name.encode("utf-8")
    hash_at = 1 + 4 + len(name)
    frame[hash_at] ^= 0x01
    with pytest.raises(SerializationError, match="does not match a codec"):
        _decoder.decode(bytes(frame))


def test_trailing_garbage_after_a_compiled_frame_is_refused():
    with pytest.raises(SerializationError, match="trailing"):
        _decoder.decode(_compiled_frame() + b"\x00")


def test_corrupt_text_in_a_compiled_frame_is_refused():
    frame = _encoder.encode(Leaf(1, "ab"))
    at = frame.index(b"ab")
    with pytest.raises(SerializationError, match="corrupt"):
        _decoder.decode(frame[:at] + b"\xff\xfe" + frame[at + 2 :])


# ----------------------------------------------------------------------
# shape drift
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "drift",
    [
        lambda leaf: setattr(leaf, "extra", [1, 2]),  # an attribute off the schema
        lambda leaf: setattr(leaf, "n", None),  # an int field holding None
        lambda leaf: setattr(leaf, "n", 2**63),  # an int beyond 64 bits
        lambda leaf: delattr(leaf, "label"),  # a field gone missing
    ],
)
def test_drifted_instance_roundtrips_through_the_generic_path(drift):
    leaf = Leaf(3, "drifter")
    drift(leaf)
    stats = SerialPathStats()
    frame = Encoder(_registry, stats=stats).encode([leaf, Leaf(4, "steady"), leaf])
    assert (stats.encodes_fast, stats.encodes_reflective) == (1, 1)
    first, steady, again = _decoder.decode(frame)
    assert vars(first) == vars(leaf) and first is again
    assert vars(steady) == vars(Leaf(4, "steady"))


# ----------------------------------------------------------------------
# one encoder, many threads
# ----------------------------------------------------------------------
def test_shared_encoder_counts_exactly_under_two_threads():
    """Everything a frame counts lives in the frame: two threads hammering
    one encoder (and one decoder) never lose or borrow a count."""
    import sys

    stats = SerialPathStats()
    encoder = Encoder(_registry, stats=stats)
    decoder = Decoder(_registry, stats=stats)
    rounds = 400
    # Thread 0 encodes 3 schema objects per frame, thread 1 one schema and
    # two schema-less: a count leaking between frames changes the totals.
    payloads = [
        [Leaf(1), Leaf(2), Node(3)],
        [Opaque(1), Leaf(2), Opaque(3)],
    ]
    errors: list[Exception] = []

    def hammer(payload):
        try:
            for _ in range(rounds):
                result = decoder.decode(encoder.encode(payload))
                assert [type(o) for o in result] == [type(o) for o in payload]
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert stats.frames_encoded == stats.frames_decoded == 2 * rounds
    assert stats.encodes_fast == stats.decodes_fast == 4 * rounds
    assert stats.encodes_reflective == 2 * rounds


# ----------------------------------------------------------------------
# fingerprints: equal state, equal bytes — across sites and across this change
# ----------------------------------------------------------------------
def _fingerprinted_graph():
    tail = Chain(2)
    vars(tail)["_obi_id"] = "oid:fp-tail"
    head = Chain(1, tail)
    vars(head)["_obi_id"] = "oid:fp-head"
    head.payload = b"\x00\xffpayload"
    folder = Folder("docs")
    vars(folder)["_obi_id"] = "oid:fp-folder"
    folder.children = [head, tail, head]
    folder.index = {"a": tail, "n": None, "t": (1, 2.5, True, "x", b"y")}
    folder.tags = {"beta", "alpha"}
    return head, folder


def test_delta_fingerprints_are_pinned_and_site_independent():
    head, folder = _fingerprinted_graph()
    with obiwan.World.loopback(costs=CostModel.zero()) as world:
        for site in (world.create_site("A"), world.create_site("B")):
            prints = site.fingerprinter
            # Recorded at the commit before schema frames became the only
            # frames: a master and a replica one release apart still agree.
            assert prints.of_object(head) == "575dc05d9fcf255ea24cc67c9573b12b"
            assert prints.of_object(folder) == "5468f0115fdb4e200d58f20b0cfaeaad"
            assert (
                prints.of_value([1, {"k": (None, -7, 2**70)}, frozenset({3, "s"})])
                == "7cf475de4e3d7ec9f0bf6264f429ba78"
            )
    assert Fingerprinter().of_object(head) == "575dc05d9fcf255ea24cc67c9573b12b"


def test_reconciler_fingerprints_are_pinned_and_site_independent():
    """A reconcile baseline is a snapshot: plain values as they are, OBIWAN
    references by oid, and one digest for the values that are neither."""
    head, folder = _fingerprinted_graph()
    with obiwan.World.loopback(costs=CostModel.zero()) as world:
        baselines = []
        for name in ("A", "B"):
            reconciler = Reconciler(world.create_site(name))
            reconciler.track(head)
            reconciler.track(folder)
            baselines.append(
                [reconciler._baselines[oid] for oid in ("oid:fp-head", "oid:fp-folder")]
            )
    assert baselines[0] == baselines[1] == [
        (
            ("index", int, 1),
            "next",
            ("payload", bytes, b"\x00\xffpayload"),
            ("_obi_id", str, "oid:fp-head"),
            ("oid:fp-tail",),
        ),
        (
            ("name", str, "docs"),
            "children",
            "index",
            "tags",
            ("_obi_id", str, "oid:fp-folder"),
            "cc6eb204bc41de09ef3c7e238a593bb4",
        ),
    ]
