"""Interfaces and replication modes.

An :class:`Interface` is the Python analogue of the paper's ``IA``: the
set of methods that may be invoked on an object through OBIWAN — remotely
via its proxy-in, or locally via its proxy-out before the target is
replicated.  obicomp derives it from a user class's public methods.

A :class:`ReplicationMode` is the ``mode`` argument of the paper's
``IProvideRemote::get(mode)``: it selects, *at run time*, how much of the
reachability graph a fetch brings over and whether the fetched objects
share a single proxy pair (a cluster) or get one pair each.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serial.registry import global_registry
from repro.util.errors import ClusterError


@dataclass(frozen=True)
class Interface:
    """The invocable surface of a compiled class."""

    name: str
    methods: tuple[str, ...]

    def __contains__(self, method: str) -> bool:
        return method in self.methods

    def __iter__(self):
        return iter(self.methods)


#: Sentinel for "no bound" in mode parameters.
UNBOUNDED = 0


@dataclass(frozen=True)
class ReplicationMode:
    """How a ``get`` traverses and packages the reachability graph.

    Attributes
    ----------
    chunk:
        Maximum number of objects fetched per get/fault
        (:data:`UNBOUNDED` = the whole reachable graph — the paper's
        transitive-closure mode).
    depth:
        Maximum BFS depth from the fetch root (:data:`UNBOUNDED` = no
        depth bound).  The paper's clusters are depth-defined: "the
        application specifies the depth of the partial reachability graph
        that it wants to replicate as a whole".
    clustered:
        ``True`` → the fetched objects form one cluster sharing a single
        proxy pair; they cannot be individually updated (Section 4.3).
        ``False`` → every fetched object gets its own proxy-in so it can
        be individually ``put`` / refreshed (Section 4.2).

    A fault demands exactly the faulting proxy's mode: the chunk is the
    only read-ahead, and the application picks it at run time.
    """

    chunk: int = 1
    depth: int = UNBOUNDED
    clustered: bool = False

    def __post_init__(self) -> None:
        _check_mode(self.chunk, self.depth, self.clustered)

    @property
    def unbounded(self) -> bool:
        return self.chunk == UNBOUNDED and self.depth == UNBOUNDED

    def describe(self) -> str:
        scope_parts = []
        if self.chunk != UNBOUNDED:
            scope_parts.append(f"{self.chunk} objects")
        if self.depth != UNBOUNDED:
            scope_parts.append(f"depth {self.depth}")
        scope = " and ".join(scope_parts) if scope_parts else "whole graph"
        style = "clustered" if self.clustered else "per-object pairs"
        return f"{scope}, {style}"


def _check_mode(chunk: object, depth: object, clustered: object) -> None:
    """Refuse a mode no traversal can honour, built or decoded."""
    for bound in (chunk, depth):
        if type(bound) is not int:
            raise ClusterError(f"mode bounds must be ints, not {type(bound).__name__}")
        if bound < 0:
            raise ClusterError("mode bounds must be >= 0 (0 means unbounded)")
    if type(clustered) is not bool:
        raise ClusterError(f"mode clustered must be a bool, not {type(clustered).__name__}")


def Incremental(chunk: int = 1, *, depth: int = UNBOUNDED) -> ReplicationMode:
    """Per-object incremental replication: ``chunk`` objects per fault,
    each with its own proxy pair (paper Section 4.2)."""
    if chunk == UNBOUNDED and depth == UNBOUNDED:
        raise ClusterError("Incremental() needs a chunk or depth bound; use Transitive()")
    return ReplicationMode(chunk=chunk, depth=depth, clustered=False)


def Transitive() -> ReplicationMode:
    """Replicate the whole transitive closure in one step, one proxy pair
    per object so everything stays individually updatable."""
    return ReplicationMode(chunk=UNBOUNDED, depth=UNBOUNDED, clustered=False)


def Cluster(size: int = UNBOUNDED, *, depth: int = UNBOUNDED) -> ReplicationMode:
    """Replicate ``size`` objects (or up to ``depth``) as one cluster with
    a single proxy pair (paper Section 4.3).  Cluster members cannot be
    individually updated — use :meth:`Site.put_back_cluster`."""
    return ReplicationMode(chunk=size, depth=depth, clustered=True)


def _mode_state(mode: object) -> object:
    assert isinstance(mode, ReplicationMode)
    return (mode.chunk, mode.depth, mode.clustered)


def _mode_set_state(mode: object, state: object) -> None:
    # Decoding bypasses ``__post_init__``: a mode from the wire is checked
    # here, before a provider traverses anything with it.
    chunk, depth, clustered = state  # type: ignore[misc]
    _check_mode(chunk, depth, clustered)
    object.__setattr__(mode, "chunk", chunk)
    object.__setattr__(mode, "depth", depth)
    object.__setattr__(mode, "clustered", clustered)


global_registry.register(
    ReplicationMode,
    name="core.ReplicationMode",
    get_state=_mode_state,
    set_state=_mode_set_state,
)


def _interface_state(iface: object) -> object:
    assert isinstance(iface, Interface)
    return (iface.name, list(iface.methods))


def _interface_set_state(iface: object, state: object) -> None:
    name, methods = state  # type: ignore[misc]
    object.__setattr__(iface, "name", name)
    object.__setattr__(iface, "methods", tuple(methods))


global_registry.register(
    Interface,
    name="core.Interface",
    get_state=_interface_state,
    set_state=_interface_set_state,
)
