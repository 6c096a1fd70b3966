"""The incremental replication engine (paper Section 2.2).

Provider side — :func:`build_package` is the generalized ``A.get``:

1. collect the replication set by bounded BFS from the fetch root
   (``mode.chunk`` objects / ``mode.depth`` levels; unbounded = the
   paper's transitive closure);
2. for every member (per-object-pair mode) ensure a proxy-in exists so
   the consumer can individually ``put``/refresh it — in clustered mode
   only the root has one;
3. serialize the members by value; every reference leaving the set is
   swizzled into a proxy-out descriptor carrying the frontier object's
   proxy-in reference (steps 2–6 of the paper's ``get``);
4. return a :class:`~repro.core.packages.ReplicaPackage` with per-object
   metadata (version, provider, cluster membership).

Consumer side — :func:`integrate_package`:

1. decode the payload; proxy-out descriptors materialize as generated
   proxy-out instances — or short-circuit to already-local replicas;
2. objects that already have a local replica are updated *in place* so
   every existing alias observes the refresh;
3. every unresolved proxy-out records the objects holding it as
   demanders (the paper's ``setDemander``), enabling ``updateMember``
   splicing when the fault fires.

Write-back — :func:`build_put` / :func:`apply_put` implement ``put``:
replica state travels with OBIWAN references flattened to logical ids;
the master site re-links them to its own objects and adopts any
consumer-created objects that arrive by value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import graphwalk
from repro.core.interfaces import ReplicationMode
from repro.core.meta import interface_of, is_obiwan, obi_id_of
from repro.core.packages import (
    ObjectMeta,
    PutDeltaEntry,
    PutDeltaPackage,
    PutEntry,
    PutPackage,
    RefreshDeltaReply,
    ReplicaPackage,
)
from repro.core.proxy_out import ProxyOutBase
from repro.rmi.protocol import NeedFull
from repro.rmi.refs import RemoteRef
from repro.serial.decoder import Decoder
from repro.serial.delta import FieldDelta, decode_field_delta, encode_field_delta
from repro.serial.encoder import Encoder
from repro.serial.swizzle import SwizzleDescriptor
from repro.util.errors import ReplicationError, UnknownReplicaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site

#: Swizzle kind for references leaving the replication set.
PROXY_OUT_KIND = "obiwan.proxy-out"


# ----------------------------------------------------------------------
# provider side
# ----------------------------------------------------------------------
class PackagingSwizzler:
    """Encoder hook used while building a replica package.

    ``member_ids`` are the ``id()`` s of the objects that travel by state;
    every other OBIWAN reference leaves as a proxy-out descriptor.
    """

    def __init__(self, site: "Site", member_ids: set[int]):
        self._site = site
        self.member_ids = member_ids
        self.pairs_created = 0

    def swizzle(self, value: object) -> SwizzleDescriptor | None:
        if isinstance(value, ProxyOutBase):
            # A frontier reference that is itself still a fault at the
            # provider (chained replication): forward its provider.
            return SwizzleDescriptor(
                PROXY_OUT_KIND,
                (value._obi_target_id, value._obi_interface.name, value._obi_provider),
            )
        if is_obiwan(value) and id(value) not in self.member_ids:
            ref, created = self._site.ensure_provider_for(value)
            if created:
                self.pairs_created += 1
            # (The reference was exported under the object's interface name.)
            return SwizzleDescriptor(PROXY_OUT_KIND, (obi_id_of(value), ref.interface, ref))
        return None

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:  # pragma: no cover
        raise ReplicationError("packaging swizzler cannot decode")


def build_package(site: "Site", root: object, mode: ReplicationMode) -> ReplicaPackage:
    """Provider-side ``get(mode)``: package ``root``'s partial graph."""
    with site.tracer.span("build_package") as span:
        package = _build_package(site, root, mode)
        span.set(
            root=package.root_id,
            objects=package.object_count,
            bytes=len(package.payload),
            pairs=package.pairs_created,
        )
        return package


def _build_package(site: "Site", root: object, mode: ReplicationMode) -> ReplicaPackage:
    members = graphwalk.breadth_first(
        root, max_objects=mode.chunk, max_depth=mode.depth
    )
    if not members:
        raise ReplicationError("replication root resolves to no object")
    root = members[0]
    _normalize_resolved_proxies(members)

    root_id = obi_id_of(root)
    member_ids = {id(m) for m in members}
    pairs_created = 0
    meta: dict[str, ObjectMeta] = {}
    for member in members:
        oid = obi_id_of(member)
        provider_ref: RemoteRef | None = None
        cluster_root: str | None = None
        if mode.clustered and member is not root:
            cluster_root = root_id
            site.note_master(member)
        else:
            provider_ref, created = site.ensure_provider_for(member)
            if created:
                pairs_created += 1
        meta[oid] = ObjectMeta(
            obi_id=oid,
            interface=interface_of(member).name,
            version=site.version_of(member),
            provider=provider_ref,
            cluster_root=cluster_root,
        )

    swizzler = PackagingSwizzler(site, member_ids)
    payload = Encoder(site.registry, swizzler, stats=site.serial_stats).encode(root)
    pairs_created += swizzler.pairs_created

    site.charge_serialization(len(payload))
    site.charge_pairs(pairs_created)
    site.charge_pair_batch(pairs_created)
    return ReplicaPackage(
        root_id=root_id,
        payload=payload,
        meta=meta,
        mode=mode,
        pairs_created=pairs_created,
    )


def _normalize_resolved_proxies(members: list[object]) -> None:
    """Replace already-resolved proxy-outs in member state by their targets.

    Keeps the encoder from ever meeting a resolved proxy: after this pass
    every proxy-out in member state is a genuine frontier fault.
    """
    replacements: dict[int, object] = {}
    for member in members:
        for ref in graphwalk.direct_references(member):
            if isinstance(ref, ProxyOutBase) and ref._obi_resolved is not None:
                replacements[id(ref)] = ref._obi_resolved
    if replacements:
        for member in members:
            graphwalk.replace_references(member, replacements)


# ----------------------------------------------------------------------
# consumer side
# ----------------------------------------------------------------------
class SiteUnswizzler:
    """Decoder hook: materialize proxy-outs, re-link by-id references."""

    def __init__(self, site: "Site", mode: ReplicationMode):
        self._site = site
        self._mode = mode

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:
        if descriptor.kind == PROXY_OUT_KIND:
            target_id, interface_name, provider = descriptor.data  # type: ignore[misc]
            local = self._site.local_node_for(target_id)
            if local is not None:
                return local
            return self._site.make_proxy_out(target_id, interface_name, provider, self._mode)
        raise ReplicationError(f"unknown swizzle kind {descriptor.kind!r}")

    def swizzle(self, value: object) -> SwizzleDescriptor | None:  # pragma: no cover
        raise ReplicationError("site unswizzler cannot encode")


def integrate_package(site: "Site", package: ReplicaPackage) -> object:
    """Consumer-side materialization of a replica package.

    Returns the canonical local object for the package root — a fresh
    replica, or the pre-existing one updated in place.
    """
    with site.tracer.span(
        "integrate",
        name=package.root_id,
        objects=package.object_count,
        bytes=len(package.payload),
    ):
        return _integrate_package(site, package)


def _integrate_package(site: "Site", package: ReplicaPackage) -> object:
    site.charge_serialization(len(package.payload))
    site.charge_replicas(package.object_count)

    decoder = Decoder(site.registry, SiteUnswizzler(site, package.mode), stats=site.serial_stats)
    decoded_root = decoder.decode(package.payload)

    arrivals = _collect_arrivals(decoded_root, package)

    # Map freshly decoded copies onto pre-existing local objects.
    replacements: dict[int, object] = {}
    canonical: dict[str, object] = {}
    for oid, fresh in arrivals.items():
        existing = site.local_object_for(oid)
        if existing is None or existing is fresh:
            canonical[oid] = fresh
            continue
        canonical[oid] = existing
        replacements[id(fresh)] = existing
        if not site.is_master(oid):
            # Refresh in place so every alias of the old replica sees the
            # new state; masters keep their own (authoritative) state.
            vars(existing).clear()
            vars(existing).update(vars(fresh))

    if replacements:
        for obj in canonical.values():
            graphwalk.replace_references(obj, replacements)

    for oid, obj in canonical.items():
        entry = package.meta[oid]
        if not site.is_master(oid):
            site.register_replica(obj, entry, package.mode)
        for ref in graphwalk.direct_references(obj):
            if isinstance(ref, ProxyOutBase) and ref._obi_resolved is None:
                ref._obi_add_demander(obj)

    root = canonical.get(package.root_id)
    if root is None:
        raise ReplicationError(
            f"package root {package.root_id!r} missing from decoded graph"
        )
    return root


def _collect_arrivals(decoded_root: object, package: ReplicaPackage) -> dict[str, object]:
    """Walk the decoded graph and index package objects by logical id."""
    arrivals: dict[str, object] = {}
    stack = [decoded_root]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen or isinstance(node, ProxyOutBase) or not is_obiwan(node):
            continue
        seen.add(id(node))
        oid = obi_id_of(node)
        if oid not in package.meta:
            continue  # an already-local object spliced in by the unswizzler
        if oid not in arrivals:
            arrivals[oid] = node
        stack.extend(graphwalk.direct_references(node))
    missing = set(package.meta) - set(arrivals)
    if missing:
        raise ReplicationError(
            f"package advertised objects that never arrived: {sorted(missing)}"
        )
    return arrivals


# ----------------------------------------------------------------------
# write-back (put)
# ----------------------------------------------------------------------
class OwnStateEncoder:
    """Encodes one object at a time as its *instance frame*.

    The frame carries the object's own state by value; every OBIWAN
    reference in that state — to another replica, to a proxy-out, even to
    an object created locally — travels as a proxy-out descriptor naming
    a provider.  The receiver decodes an instance of the same class and
    lifts its state (:func:`own_state_of`).  One swizzler/encoder pair
    serves a whole batch: each frame is independent, and ``pairs_created``
    accumulates so the cost model is charged once.

    What is encoded is a shallow copy, so a reference the object holds to
    *itself* is, to the swizzler, a reference to some other object and
    leaves as a proxy-out like the rest: the receiver re-links it to its
    own object, not to the temporary it decoded.
    """

    def __init__(self, site: "Site"):
        self.swizzler = PackagingSwizzler(site, member_ids=set())
        self._encoder = Encoder(site.registry, self.swizzler, stats=site.serial_stats)

    def encode(self, obj: object) -> bytes:
        cls = type(obj)
        copy = cls.__new__(cls)
        vars(copy).update(vars(obj))
        self.swizzler.member_ids = {id(copy)}
        return self._encoder.encode(copy)


def own_state_of(decoded: object, cls: type) -> dict[str, object] | None:
    """The state dict an instance frame of ``cls`` carried, or None when
    the frame decoded to anything else."""
    return dict(vars(decoded)) if type(decoded) is cls else None


def build_put(site: "Site", replicas: list[object]) -> PutPackage:
    """Build the ``put`` package for one or more local replicas.

    Each entry carries one object's own state as an instance frame; the
    destination re-links the references it can resolve locally and keeps
    proxy-outs for the rest.  A consumer-created object thus stays
    mastered at the consumer ("objects can be replicated freely among
    sites").
    """
    entries: list[PutEntry] = []
    total_bytes = 0
    encoder = OwnStateEncoder(site)
    for replica in replicas:
        oid = obi_id_of(replica)
        info = site.replica_info(oid)
        payload = encoder.encode(replica)
        total_bytes += len(payload)
        entries.append(
            PutEntry(obi_id=oid, payload=payload, version_seen=info.version if info else 0)
        )
    site.charge_pairs(encoder.swizzler.pairs_created)
    site.charge_serialization(total_bytes)
    return PutPackage(entries=entries)


def apply_put(site: "Site", package: PutPackage) -> dict[str, int]:
    """Master-side ``put``: apply replica states; returns new versions."""
    with site.tracer.span("apply_put", entries=len(package.entries)):
        return _apply_put(site, package)


def _apply_put(site: "Site", package: PutPackage) -> dict[str, int]:
    # Validate before applying: every entry must name a master of this
    # site and pass the guard its own oid was exported behind, or nothing
    # is touched.
    masters = [_authorized_master(site, entry.obi_id, "put") for entry in package.entries]
    versions: dict[str, int] = {}
    # Every entry decodes under the same unswizzling policy, so one
    # decoder serves the whole package (each decode() is its own frame).
    decoder = Decoder(
        site.registry, SiteUnswizzler(site, ReplicationMode()), stats=site.serial_stats
    )
    # A full put replaces the whole state: poison the delta history
    # (``fields=None``) so refreshes spanning this version go through the
    # full-state path.
    applied: list[tuple[str, int, None]] = []
    try:
        for entry, master in zip(package.entries, masters):
            site.charge_serialization(len(entry.payload))
            state = own_state_of(decoder.decode(entry.payload), type(master))
            if state is None:
                raise ReplicationError(
                    f"put payload for {entry.obi_id!r} must decode to an instance "
                    f"of {type(master).__name__}"
                )
            preserved_id = vars(master).get("_obi_id")
            vars(master).clear()
            vars(master).update(state)
            if preserved_id is not None:
                vars(master)["_obi_id"] = preserved_id
            versions[entry.obi_id] = site.bump_master_version(entry.obi_id)
            applied.append((entry.obi_id, versions[entry.obi_id], None))
    finally:
        # One journal batch per put — also when an entry failed midway, so
        # no applied entry is ever left unjournaled.
        site.change_log.record_many(applied)
    return versions


def _authorized_master(site: "Site", oid: str, verb: str) -> object:
    """The master a put entry targets, once the caller may write it."""
    master = site.master_object_for(oid)
    if master is None:
        raise UnknownReplicaError(
            f"{verb} targets object {oid!r} which is not mastered at "
            f"site {site.name!r}"
        )
    site.authorize_put(oid)
    return master


# ----------------------------------------------------------------------
# delta write-back (versioned put)
# ----------------------------------------------------------------------
def build_put_delta(
    site: "Site", items: "list[tuple[object, frozenset[str]]]"
) -> PutDeltaPackage:
    """Build a delta ``put``: only each replica's changed fields travel.

    ``items`` pairs a replica with the field names its dirty tracker
    reported.  References swizzle exactly as on the full-state path, so
    the master re-links what it can resolve and keeps proxy-outs for the
    rest.  Each entry also carries a fingerprint of the replica's *full*
    state: the master refuses the merge unless its predicted post-merge
    state digests identically, so tracker bugs and aliasing divergence
    downgrade to the full path instead of corrupting the master.
    """
    entries: list[PutDeltaEntry] = []
    total_bytes = 0
    swizzler = PackagingSwizzler(site, member_ids=set())
    encoder = Encoder(site.registry, swizzler, stats=site.serial_stats)
    for replica, fields in items:
        oid = obi_id_of(replica)
        info = site.replica_info(oid)
        state = vars(replica)
        delta_fields = {name: state[name] for name in sorted(fields) if name in state}
        payload = encode_field_delta(
            encoder,
            FieldDelta(obi_id=oid, base_version=info.version if info else 0, fields=delta_fields),
        )
        total_bytes += len(payload)
        entries.append(
            PutDeltaEntry(
                obi_id=oid,
                base_version=info.version if info else 0,
                payload=payload,
                fingerprint=site.fingerprinter.of_object(replica),
            )
        )
    site.charge_pairs(swizzler.pairs_created)
    site.charge_serialization(total_bytes)
    return PutDeltaPackage(entries=entries)


def apply_put_delta(site: "Site", package: PutDeltaPackage) -> "dict[str, int] | NeedFull":
    """Master-side delta ``put``: validate everything, then merge.

    All-or-nothing: every entry must find its master (else a typed
    :class:`UnknownReplicaError`), pass the guard its oid was exported
    behind (else :class:`SecurityError`), match the master's current version
    exactly, and — after decoding — predict a post-merge state whose
    fingerprint equals the consumer's.  Any version or fingerprint
    mismatch answers :class:`NeedFull` with *nothing* applied, so the
    consumer's full-state retry sees an unchanged master.
    """
    with site.tracer.span("apply_put_delta", entries=len(package.entries)) as span:
        result = _apply_put_delta(site, package)
        if isinstance(result, NeedFull):
            span.set(outcome="need_full")
        return result


def _apply_put_delta(site: "Site", package: PutDeltaPackage) -> "dict[str, int] | NeedFull":
    decoder = Decoder(
        site.registry, SiteUnswizzler(site, ReplicationMode()), stats=site.serial_stats
    )
    staged: list[tuple[str, object, dict[str, object]]] = []
    for entry in package.entries:
        site.charge_serialization(len(entry.payload))
        master = _authorized_master(site, entry.obi_id, "delta put")
        current = site.master_version(master)
        if current != entry.base_version:
            return NeedFull(
                f"object {entry.obi_id!r} is at version {current}, delta is based "
                f"on version {entry.base_version}"
            )
        fields = decode_field_delta(decoder, entry.payload)
        fields.pop("_obi_id", None)
        predicted = dict(vars(master))
        predicted.update(fields)
        if site.fingerprinter.of_state(predicted) != entry.fingerprint:
            return NeedFull(
                f"post-merge state of {entry.obi_id!r} would diverge from the "
                "consumer's replica"
            )
        staged.append((entry.obi_id, master, fields))
    versions: dict[str, int] = {}
    applied: list[tuple[str, int, frozenset[str]]] = []
    try:
        for oid, master, fields in staged:
            vars(master).update(fields)
            versions[oid] = site.bump_master_version(oid)
            applied.append((oid, versions[oid], frozenset(fields)))
    finally:
        site.change_log.record_many(applied)
    return versions


# ----------------------------------------------------------------------
# delta refresh (versioned get)
# ----------------------------------------------------------------------
def build_refresh_delta(
    site: "Site", master: object, base_version: int
) -> "RefreshDeltaReply | NeedFull":
    """Provider-side delta refresh: the fields changed since ``base_version``.

    Serves from the site's change log; any gap in the history — a full
    put, a blanket ``touch``, retention overflow — answers
    :class:`NeedFull` and the consumer re-fetches full state.
    """
    oid = obi_id_of(master)
    current = site.master_version(master)
    fingerprint = site.fingerprinter.of_object(master)
    if current == base_version:
        return RefreshDeltaReply(obi_id=oid, version=current, payload=b"", fingerprint=fingerprint)
    fields = site.change_log.fields_since(oid, base_version, current)
    if fields is None:
        return NeedFull(
            f"no delta history for {oid!r} from version {base_version} to {current}"
        )
    state = vars(master)
    if any(name not in state for name in fields):
        # A logged field has since been removed; deltas cannot express
        # deletion, so hand the consumer full state.
        return NeedFull(f"fields of {oid!r} were removed since version {base_version}")
    swizzler = PackagingSwizzler(site, member_ids=set())
    encoder = Encoder(site.registry, swizzler, stats=site.serial_stats)
    payload = encode_field_delta(
        encoder,
        FieldDelta(
            obi_id=oid,
            base_version=base_version,
            fields={name: state[name] for name in sorted(fields)},
        ),
    )
    site.charge_pairs(swizzler.pairs_created)
    site.charge_serialization(len(payload))
    return RefreshDeltaReply(obi_id=oid, version=current, payload=payload, fingerprint=fingerprint)


def apply_refresh_delta(site: "Site", replica: object, reply: RefreshDeltaReply) -> bool:
    """Consumer-side merge of a delta refresh into ``replica`` in place.

    Returns ``True`` when the merged state fingerprints identically to
    the master's; ``False`` signals divergence, and the caller must fall
    back to a full refresh (which overwrites whatever this merge wrote).
    Writes go through ``vars()`` so the merge never marks fields dirty.
    """
    site.charge_serialization(len(reply.payload))
    if reply.payload:
        decoder = Decoder(
            site.registry, SiteUnswizzler(site, ReplicationMode()), stats=site.serial_stats
        )
        fields = decode_field_delta(decoder, reply.payload)
        fields.pop("_obi_id", None)
        vars(replica).update(fields)
        for ref in graphwalk.direct_references(replica):
            if isinstance(ref, ProxyOutBase) and ref._obi_resolved is None:
                ref._obi_add_demander(replica)
    return site.fingerprinter.of_object(replica) == reply.fingerprint
