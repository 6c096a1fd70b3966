"""The reconciler's dirty check against the encoder-based one it replaced.

Until the snapshot baseline, a replica was dirty when the reflective
encoding of its attribute dict — OBIWAN references flattened to their
oids — differed from the encoding taken when it was last in sync.
:func:`reference_fingerprint` keeps that implementation verbatim; the
property below holds the snapshot to the same verdict on every state and
edit it generates, and the explicit cases pin the verdicts that matter.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costs import CostModel
from repro.core.interfaces import Incremental
from repro.core.meta import interface_of, is_obiwan, obi_id_of
from repro.core.proxy_out import ProxyOutBase, make_proxy_out_class
from repro.core.runtime import World
from repro.mobility.reconcile import Reconciler
from repro.rmi.refs import RemoteRef
from repro.serial.encoder import Encoder
from repro.serial.swizzle import SwizzleDescriptor
from tests.models import Box, Chain, make_chain


# ----------------------------------------------------------------------
# the reference: the encoder-based fingerprint, as it was
# ----------------------------------------------------------------------
class _ReferenceSwizzler:
    """Flattens OBIWAN references to their ids; purely observational."""

    def swizzle(self, value: object) -> SwizzleDescriptor | None:
        if isinstance(value, ProxyOutBase):
            return SwizzleDescriptor("fingerprint.ref", value._obi_target_id)
        if is_obiwan(value):
            return SwizzleDescriptor("fingerprint.ref", obi_id_of(value))
        return None

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:  # pragma: no cover
        raise NotImplementedError("fingerprints are never decoded")


def reference_fingerprint(site, replica: object) -> bytes:
    """Deterministic encoding of the replica's state."""
    return Encoder(site.registry, _ReferenceSwizzler()).encode(dict(vars(replica)))


# ----------------------------------------------------------------------
# a site, and OBIWAN references: proxy-outs and objects sharing oids
# ----------------------------------------------------------------------
def _proxy(oid: str) -> ProxyOutBase:
    """An unresolved proxy-out for ``oid``; nothing here ever faults it."""
    interface = interface_of(Chain)
    provider = RemoteRef(site_id="provider", object_id=f"export-{oid}", interface=interface.name)
    return make_proxy_out_class(interface)(None, oid, provider, interface, Incremental(1))


def _resolved(oid: str) -> Chain:
    node = Chain(7)
    vars(node)["_obi_id"] = oid
    return node


#: Two names per oid: the proxy-out a replica holds before its fault, and
#: the replica the fault splices in.
REFS = {
    "proxy-a": _proxy("oid:ref-a"),
    "object-a": _resolved("oid:ref-a"),
    "proxy-b": _proxy("oid:ref-b"),
    "object-b": _resolved("oid:ref-b"),
}
SAME_OID = {"proxy-a": "object-a", "object-a": "proxy-a", "proxy-b": "object-b", "object-b": "proxy-b"}


@pytest.fixture(scope="module")
def reconciler():
    with World.loopback(costs=CostModel.zero()) as world:
        yield Reconciler(world.create_site("snapshot"))


def _verdicts(reconciler: Reconciler, before: dict, edit) -> tuple[bool, bool]:
    """(snapshot verdict, reference verdict) for ``edit`` applied to a
    replica tracked in state ``before``."""
    subject = Box()
    vars(subject).clear()
    vars(subject).update({"_obi_id": "oid:subject", **before})
    reconciler.track(subject)
    baseline = reference_fingerprint(reconciler.site, subject)
    edit(vars(subject))
    return (
        reconciler.is_dirty(subject),
        reference_fingerprint(reconciler.site, subject) != baseline,
    )


# ----------------------------------------------------------------------
# the property
# ----------------------------------------------------------------------
NAMES = ("a", "b", "c")
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)

plain = st.one_of(
    st.integers(min_value=-(2**64), max_value=2**64),
    st.booleans(),
    text,
    st.binary(max_size=8),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
refs = st.sampled_from(sorted(REFS)).map(REFS.__getitem__)
leaves = st.one_of(refs, plain)
values = st.one_of(
    refs,
    leaves,
    st.lists(leaves, max_size=3),
    st.tuples(leaves, leaves),
    st.dictionaries(text, leaves, max_size=3),
    st.sets(st.integers(-3, 3), max_size=3),
    st.builds(bytearray, st.binary(max_size=4)),
)
#: Attributes take their values from one small shared pool, so they alias
#: one another — and, after a ``copy``, hold equal but distinct values —
#: as often as not.
pools = st.lists(st.one_of(refs, values), min_size=1, max_size=4)
states = st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3), min_size=1)
#: ``(kind, name, index, new)``: one edit of a state dict (see :func:`_edit`).
edits = st.tuples(
    st.sampled_from(["set", "new", "copy", "swap-ref", "mutate", "delete"]),
    st.sampled_from(NAMES),
    st.integers(0, 3),
    values,
)


def _edit(state: dict, pool: list, kind: str, name: str, index: int, new: object) -> None:
    """Rebind to a pool value, a fresh one or an equal copy; swap a
    reference for its same-oid twin; mutate in place; delete."""
    value = state.get(name)
    if kind == "set":
        state[name] = pool[index % len(pool)]
    elif kind == "new":
        state[name] = new
    elif kind == "copy":
        state[name] = _rebuilt(pool[index % len(pool)])  # equal, not the same object
    elif kind == "swap-ref" and isinstance(value, (ProxyOutBase, Chain)):
        label = next(key for key, ref in REFS.items() if ref is value)
        state[name] = REFS[SAME_OID[label]]
    elif kind == "mutate":
        _mutate(value, new)
    elif kind == "delete":
        state.pop(name, None)


def _rebuilt(value: object) -> object:
    if isinstance(value, float):
        return float("nan") if math.isnan(value) else float.fromhex(value.hex())
    if isinstance(value, (list, dict, set, bytearray)):
        return type(value)(value)
    return value


def _mutate(value: object, new: object) -> None:
    if isinstance(value, list):
        value.append(new)
    elif isinstance(value, dict):
        value["k"] = new
    elif isinstance(value, set):
        value.add(len(value) + 10)
    elif isinstance(value, bytearray):
        value[:1] = b"\xfd" if value[:1] == b"\xfe" else b"\xfe"


@settings(max_examples=300)
@given(pool=pools, before=states, steps=st.lists(edits, max_size=3))
def test_snapshot_agrees_with_the_encoder_fingerprint(reconciler, pool, before, steps):
    def edit(state):
        for step in steps:
            _edit(state, pool, *step)

    state = {name: pool[index % len(pool)] for name, index in before.items()}
    snapshot, reference = _verdicts(reconciler, state, edit)
    assert snapshot == reference


# ----------------------------------------------------------------------
# explicit cases, each with the reference's verdict
# ----------------------------------------------------------------------
def _set(name, value):
    return lambda state: state.__setitem__(name, value)


def _aliased(value):
    return {"a": value, "b": value}


CASES = [
    ("int-to-bool", {"a": 1}, _set("a", True), True),
    ("positive-to-negative-zero", {"a": 0.0}, _set("a", -0.0), True),
    ("nan-for-another-nan", {"a": float("nan")}, _set("a", float("nan")), False),
    ("proxy-for-its-object", {"a": REFS["proxy-a"]}, _set("a", REFS["object-a"]), False),
    ("proxy-for-another-oid", {"a": REFS["proxy-a"]}, _set("a", REFS["object-b"]), True),
    ("list-append", {"a": [1]}, lambda state: state["a"].append(2), True),
    ("dict-set", {"a": {"k": 1}}, lambda state: state["a"].__setitem__("k", 2), True),
    ("set-add", {"a": {1}}, lambda state: state["a"].add(2), True),
    ("bytearray-write", {"a": bytearray(b"xy")}, lambda state: state["a"].__setitem__(0, 0), True),
    ("attribute-added", {"a": 1}, _set("b", 1), True),
    ("attribute-deleted", {"a": 1, "b": 1}, lambda state: state.pop("b"), True),
    ("equal-string-rebound", {"a": "text"}, _set("a", "".join(["te", "xt"])), False),
    ("aliased-list-for-an-equal-copy", _aliased([1]), lambda state: state.__setitem__("b", [1]), True),
    ("aliased-proxy-for-its-object", _aliased(REFS["proxy-a"]), _set("b", REFS["object-a"]), True),
    ("untouched", {"a": [1, REFS["proxy-b"]], "b": 2.5}, lambda state: None, False),
]


@pytest.mark.parametrize(
    ("before", "edit", "dirty"),
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_explicit_verdicts(reconciler, before, edit, dirty):
    assert _verdicts(reconciler, before, edit) == (dirty, dirty)


def test_a_resolved_fault_leaves_the_replica_clean():
    """The fault resolver splicing a replica in place of a proxy-out is
    not an edit."""
    with World.loopback(costs=CostModel.zero()) as world:
        world.create_site("NS").export(make_chain(3), name="chain")
        site = world.create_site("pda")
        reconciler = Reconciler(site)
        head = site.replicate("chain", Incremental(1))
        assert isinstance(vars(head)["next"], ProxyOutBase)
        reconciler.track(head)
        head.next.get_index()  # faults: the replica replaces the proxy-out
        assert not isinstance(vars(head)["next"], ProxyOutBase)
        assert not reconciler.is_dirty(head)
        head.index = 99
        assert reconciler.is_dirty(head)
