"""Dynamic clusters (paper Sections 2.2 and 4.3).

A cluster is a run-time-chosen part of a reachability graph replicated as
a whole through a *single* proxy-in/proxy-out pair.  That makes the fetch
much cheaper than per-object replication (Figure 6 vs Figure 5), at the
price the paper states: "each object can not be individually updated".

Cluster *collection* is the bounded BFS in
:func:`repro.core.replication.build_package` driven by a
``Cluster(size=…)`` / ``Cluster(depth=…)`` mode; this module provides the
consumer-side operations that respect cluster granularity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.meta import obi_id_of
from repro.util.errors import ClusterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site


def cluster_members(site: "Site", root: object) -> list[object]:
    """The local replicas belonging to ``root``'s cluster (root first)."""
    root_id = obi_id_of(root)
    info = site.replica_info(root_id)
    if info is None:
        raise ClusterError(f"{root_id!r} is not a replica on site {site.name!r}")
    if info.cluster_root is not None:
        raise ClusterError(
            f"{root_id!r} is a cluster member, not a cluster root; "
            f"operate on its root {info.cluster_root!r}"
        )
    members = [root]
    members.extend(
        entry.obj
        for entry in site.iter_replicas()
        if entry.cluster_root == root_id
    )
    return members


def check_individually_updatable(site: "Site", replica: object) -> None:
    """Raise :class:`ClusterError` if ``replica`` is a cluster member."""
    info = site.replica_info(obi_id_of(replica))
    if info is not None and info.cluster_root is not None:
        raise ClusterError(
            "cluster members cannot be individually updated (paper Section 4.3); "
            f"put back the cluster root {info.cluster_root!r} instead"
        )
    if info is not None and info.provider is None and info.cluster_root is None:
        raise ClusterError(
            f"replica {obi_id_of(replica)!r} has no provider reference to put to"
        )
