"""The incremental replication engine (paper Section 2.2).

Provider side — :func:`build_package` is the generalized ``A.get``:

1. collect the replication set by bounded BFS from the fetch root
   (``mode.chunk`` objects / ``mode.depth`` levels; unbounded = the
   paper's transitive closure);
2. for every member (per-object-pair mode) ensure a proxy-in exists so
   the consumer can individually ``put``/refresh it — in clustered mode
   only the root has one;
3. serialize the members by value; every reference leaving the set is
   swizzled into a proxy-out descriptor ``(oid, interface, site)`` naming
   the frontier object's proxy-in (steps 2–6 of the paper's ``get``);
4. return a :class:`~repro.core.packages.ReplicaPackage` mapping each
   member's oid to its version.

A proxy-in is exported under its master's oid, so ``(site, oid,
interface)`` names it fully and no reference travels.

Consumer side — :func:`integrate_package`:

1. decode the payload; proxy-out descriptors materialize as generated
   proxy-out instances — or short-circuit to already-local replicas;
   every new replica record names its proxy-in on the site that was
   asked, except a clustered fetch's non-root members, which name the
   root instead;
2. objects that already have a local replica are updated *in place* so
   every existing alias observes the refresh — except under a demand,
   which re-links to the local replica and keeps its state (a local edit
   survives a demand that wraps onto it);
3. every unresolved proxy-out records the objects holding it as
   demanders (the paper's ``setDemander``), enabling ``updateMember``
   splicing when the fault fires.

Write-back — :func:`build_put` / :func:`apply_put` implement ``put``:
the entries' states travel as one frame in which a reference to an
object the master's site provides is a bare oid; the master decodes and
checks the whole frame, then re-links those oids to its own objects and
keeps proxy-outs for the rest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import graphwalk
from repro.core.interfaces import ReplicationMode
from repro.core.meta import is_obiwan, obi_id_of, proxy_in_ref
from repro.core.packages import PutEntry, PutPackage, ReplicaPackage
from repro.core.proxy_out import ProxyOutBase
from repro.rmi.refs import RemoteRef
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.serial.swizzle import SwizzleDescriptor
from repro.util.errors import ReplicationError, UnknownReplicaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site

#: Swizzle kind for references leaving the replication set.
PROXY_OUT_KIND = "obiwan.proxy-out"

#: Swizzle kind for a reference to one of the receiver's own objects: its
#: data is the bare oid, resolved among the receiver's objects.
OID_KIND = "obiwan.oid"


# ----------------------------------------------------------------------
# provider side
# ----------------------------------------------------------------------
class PackagingSwizzler:
    """Encoder hook used while building a replica package or a put.

    ``member_ids`` are the ``id()`` s of the objects that travel by state.
    A reference to an object whose provider is ``destination`` — the site
    the frame is for — travels as its bare oid and exports nothing, as
    does one to an object of ``held`` (``id()`` → oid of objects the
    destination is known to master: a put's own entries); every other
    OBIWAN reference leaves as a proxy-out descriptor.
    """

    def __init__(
        self,
        site: "Site",
        member_ids: set[int],
        destination: str | None = None,
        held: dict[int, str] | None = None,
    ):
        self._site = site
        self.member_ids = member_ids
        self.destination = destination
        self._held = held if held is not None else {}
        self.pairs_created = 0

    def swizzle(self, value: object) -> SwizzleDescriptor | None:
        if isinstance(value, ProxyOutBase):
            if value._obi_provider.site_id == self.destination:
                return SwizzleDescriptor(OID_KIND, value._obi_target_id)
            # A frontier reference that is itself still a fault at the
            # provider (chained replication): forward its provider.
            return SwizzleDescriptor(
                PROXY_OUT_KIND,
                (value._obi_target_id, value._obi_interface.name, value._obi_provider.site_id),
            )
        if is_obiwan(value) and id(value) not in self.member_ids:
            oid = self._held.get(id(value))
            if oid is not None:
                return SwizzleDescriptor(OID_KIND, oid)
            oid = obi_id_of(value)
            if self.destination is not None and self._provided_by_destination(oid):
                return SwizzleDescriptor(OID_KIND, oid)
            ref, created = self._site.ensure_provider_for(value)
            if created:
                self.pairs_created += 1
            return SwizzleDescriptor(PROXY_OUT_KIND, (oid, ref.interface, ref.site_id))
        return None

    def _provided_by_destination(self, oid: str) -> bool:
        """True for a replica whose provider — for a cluster member, its
        root's — is on the destination site."""
        record = self._site.replica_info(oid)
        if record is None or record.provider is None:
            root = record.cluster_root if record is not None else None
            return root is not None and self._provided_by_destination(root)
        return record.provider.site_id == self.destination

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
    resolved: list[tuple[object, ProxyOutBase]] = []
    members = graphwalk.breadth_first(
        root, max_objects=mode.chunk, max_depth=mode.depth, resolved=resolved
    )
    if not members:
        raise ReplicationError("replication root resolves to no object")
    root = members[0]
    if resolved:
        # Splice already-resolved proxy-outs out of their holders, so every
        # proxy-out the encoder meets is a genuine frontier fault.
        replacements = {id(proxy): proxy._obi_resolved for _holder, proxy in resolved}
        for holder in {id(holder): holder for holder, _proxy in resolved}.values():
            graphwalk.replace_references(holder, replacements)

    root_id = obi_id_of(root)
    member_ids = {id(m) for m in members}
    pairs_created = 0
    meta: dict[str, int] = {}
    for member in members:
        if mode.clustered and member is not root:
            site.note_master(member)
        elif site.ensure_provider_for(member)[1]:
            pairs_created += 1
        meta[obi_id_of(member)] = site.version_of(member)

    swizzler = PackagingSwizzler(site, member_ids)
    payload = Encoder(site.registry, swizzler, stats=site.serial_stats).encode(root)
    pairs_created += swizzler.pairs_created

    site.charge_serialization(len(payload))
    site.charge_pairs(pairs_created)
    site.charge_pair_batch(pairs_created)
    return ReplicaPackage(
        root_id=root_id, payload=payload, meta=meta, pairs_created=pairs_created
    )


# ----------------------------------------------------------------------
# consumer side
# ----------------------------------------------------------------------
class SiteUnswizzler:
    """Decoder hook: materialize proxy-outs, re-link by-id references (a
    bare oid this site does not hold fails the whole frame, typed)."""

    def __init__(self, site: "Site", mode: ReplicationMode):
        self._site = site
        self._mode = mode

    def unswizzle(self, descriptor: SwizzleDescriptor) -> object:
        if descriptor.kind == OID_KIND:
            oid = descriptor.data
            local = self._site.local_node_for(oid) if type(oid) is str else None
            if local is None:
                raise UnknownReplicaError(
                    f"reference to object {oid!r}, which site {self._site.name!r} does not hold"
                )
            return local
        if descriptor.kind == PROXY_OUT_KIND:
            target_id, interface_name, provider_site = descriptor.data  # type: ignore[misc]
            local = self._site.local_node_for(target_id)
            if local is not None:
                return local
            provider = RemoteRef(provider_site, target_id, interface_name)
            return self._site.make_proxy_out(target_id, interface_name, provider, self._mode)
        raise ReplicationError(f"unknown swizzle kind {descriptor.kind!r}")

    def swizzle(self, value: object) -> SwizzleDescriptor | None:  # pragma: no cover
        raise ReplicationError("site unswizzler cannot encode")


def integrate_package(
    site: "Site",
    package: ReplicaPackage,
    mode: ReplicationMode,
    provider_site: str,
    *,
    keep_local: bool = False,
) -> object:
    """Consumer-side materialization of a replica package.

    ``mode`` is the mode the consumer asked with: new replica records and
    frontier proxy-outs keep it.  ``provider_site`` is the site that was
    asked: it exports each member's proxy-in under the member's oid.
    ``keep_local`` (a demand) treats a replica the site already holds the
    way a local master always is: re-linked to, but neither updated nor
    re-registered.  Returns the canonical local object for the package
    root — a fresh replica, or the pre-existing one.
    """
    with site.tracer.span(
        "integrate",
        name=package.root_id,
        objects=package.object_count,
        bytes=len(package.payload),
    ):
        return _integrate_package(site, package, mode, provider_site, keep_local)


def _integrate_package(
    site: "Site",
    package: ReplicaPackage,
    mode: ReplicationMode,
    provider_site: str,
    keep_local: bool,
) -> object:
    site.charge_serialization(len(package.payload))
    site.charge_replicas(package.object_count)

    decoder = Decoder(site.registry, SiteUnswizzler(site, mode), stats=site.serial_stats)
    decoded_root = decoder.decode(package.payload)

    arrivals, frontier = _collect_arrivals(decoded_root, package)

    # Map freshly decoded copies onto pre-existing local objects.
    replacements: dict[int, object] = {}
    canonical: dict[str, object] = {}
    # Objects that keep their own state: local masters, and under a
    # demand every local replica too.
    kept: set[str] = set()
    for oid, fresh in arrivals.items():
        existing = site.local_object_for(oid)
        canonical[oid] = fresh if existing is None else existing
        if existing is None:
            continue
        if keep_local or site.is_master(oid):
            kept.add(oid)
        elif existing is not fresh:
            # Refresh in place so every alias of the old replica sees the
            # new state.
            vars(existing).clear()
            vars(existing).update(vars(fresh))
        if existing is not fresh:
            replacements[id(fresh)] = existing

    if replacements:
        for obj in canonical.values():
            graphwalk.replace_references(obj, replacements)

    root_id = package.root_id
    for oid, obj in canonical.items():
        if oid in kept:
            continue
        if mode.clustered and oid != root_id:
            site.register_replica(oid, obj, package.meta[oid], mode, cluster_root=root_id)
        else:
            provider = proxy_in_ref(provider_site, obj)
            site.register_replica(oid, obj, package.meta[oid], mode, provider=provider)
    # The paper's setDemander: every unresolved proxy-out learns which
    # objects hold it, so its fault can splice the replica into them.
    for oid, proxy in frontier:
        if oid not in kept:
            proxy._obi_add_demander(canonical[oid])
    for oid in kept:
        for ref in graphwalk.direct_references(canonical[oid]):
            if isinstance(ref, ProxyOutBase) and ref._obi_resolved is None:
                ref._obi_add_demander(canonical[oid])

    root = canonical.get(root_id)
    if root is None:
        raise ReplicationError(
            f"package root {package.root_id!r} missing from decoded graph"
        )
    return root


def _collect_arrivals(
    decoded_root: object, package: ReplicaPackage
) -> tuple[dict[str, object], list[tuple[str, ProxyOutBase]]]:
    """Walk the decoded graph once: index package objects by logical id,
    and list every unresolved proxy-out with the oid of its holder."""
    arrivals: dict[str, object] = {}
    frontier: list[tuple[str, ProxyOutBase]] = []
    meta = package.meta
    stack = [decoded_root] if is_obiwan(decoded_root) else []
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        oid = obi_id_of(node)
        if oid not in meta:
            continue  # an already-local object spliced in by the unswizzler
        if oid not in arrivals:
            arrivals[oid] = node
        for ref in graphwalk.direct_references(node):
            if not isinstance(ref, ProxyOutBase):
                stack.append(ref)
            elif ref._obi_resolved is None:
                frontier.append((oid, ref))
    missing = set(meta) - set(arrivals)
    if missing:
        raise ReplicationError(
            f"package advertised objects that never arrived: {sorted(missing)}"
        )
    return arrivals, frontier


# ----------------------------------------------------------------------
# write-back (put)
# ----------------------------------------------------------------------
def build_put(
    site: "Site", replicas: list[object], destination: str | None = None
) -> PutPackage:
    """Build the ``put`` package for one or more local replicas.

    One frame carries the instance frames of every entry, in entry order.
    Each is a shallow copy, so every reference an entry holds — to another
    entry, even to itself — is swizzled: to its bare oid when it names an
    entry (a put applies only where every entry is mastered) or an object
    whose provider is ``destination`` (the site the put goes to),
    otherwise to a proxy-out descriptor.  A consumer-created object thus
    stays mastered at the consumer ("objects can be replicated freely
    among sites").
    """
    entries: list[PutEntry] = []
    copies: list[object] = []
    held: dict[int, str] = {}  # the destination masters every entry
    for replica in replicas:
        oid = held[id(replica)] = obi_id_of(replica)
        info = site.replica_info(oid)
        entries.append(PutEntry(obi_id=oid, version_seen=info.version if info else 0))
        copy = type(replica).__new__(type(replica))
        vars(copy).update(vars(replica))
        copies.append(copy)
    swizzler = PackagingSwizzler(site, {id(copy) for copy in copies}, destination, held)
    payload = Encoder(site.registry, swizzler, stats=site.serial_stats).encode(copies)
    site.charge_pairs(swizzler.pairs_created)
    site.charge_serialization(len(payload))
    return PutPackage(entries=entries, payload=payload)


def apply_put(site: "Site", package: PutPackage) -> dict[str, int]:
    """Master-side ``put``: apply replica states; returns new versions."""
    with site.tracer.span("apply_put", entries=len(package.entries)):
        return _apply_put(site, package)


def _apply_put(site: "Site", package: PutPackage) -> dict[str, int]:
    # Validate before applying: every entry must name a master of this
    # site and pass the guard its own oid was exported behind, and the frame
    # must decode to one instance of each master's class, or nothing moves.
    masters = [_authorized_master(site, entry.obi_id) for entry in package.entries]
    site.charge_serialization(len(package.payload))
    states = Decoder(
        site.registry, SiteUnswizzler(site, ReplicationMode()), stats=site.serial_stats
    ).decode(package.payload)
    if type(states) is not list or len(states) != len(masters):
        raise ReplicationError(
            f"put payload must decode to a list of {len(masters)} instance frames"
        )
    for entry, master, state in zip(package.entries, masters, states):
        if type(state) is not type(master):
            raise ReplicationError(
                f"put payload for {entry.obi_id!r} must decode to an instance "
                f"of {type(master).__name__}"
            )
    versions: dict[str, int] = {}
    applied: list[tuple[str, int]] = []
    try:
        for entry, master, state in zip(package.entries, masters, states):
            preserved_id = vars(master).get("_obi_id")
            vars(master).clear()
            vars(master).update(vars(state))
            if preserved_id is not None:
                vars(master)["_obi_id"] = preserved_id
            versions[entry.obi_id] = site.bump_master_version(entry.obi_id)
            applied.append((entry.obi_id, versions[entry.obi_id]))
    finally:
        # One journal batch per put — also when an entry failed midway, so
        # no applied entry is ever left unjournaled.
        site.change_log.record_many(applied)
    return versions


def _authorized_master(site: "Site", oid: str) -> object:
    """The master a put entry targets, once the caller may write it."""
    master = site.master_object_for(oid)
    if master is None:
        raise UnknownReplicaError(
            f"put targets object {oid!r} which is not mastered at "
            f"site {site.name!r}"
        )
    site.authorize(oid, "put")
    return master
