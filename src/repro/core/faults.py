"""Object-fault resolution (paper Section 2.2, steps 1–6 of ``demand``).

When an interface method is invoked on an unresolved proxy-out:

1. the proxy's provider (the target's proxy-in) is asked to ``demand`` a
   package — replicating "the next *k* objects" under the proxy's mode;
2. the package is integrated locally;
3. every demander that was holding the proxy-out has the fresh replica
   spliced in (``updateMember``) — after which "further invocations …
   will be normal direct invocations with no indirection at all";
4. the proxy-out records its resolution so aliased references still
   forward correctly, and is handed to GC accounting: once application
   references drop, the ordinary garbage collector reclaims it.

The batched fast path (``mode.prefetch > 0``) keeps those semantics but
re-schedules the transfers:

* the demand travels with a widened scope (``mode.demand_scope()``) so
  the provider returns the target plus up to ``prefetch`` read-ahead
  objects of the incremental chunk in the same round trip;
* up to ``prefetch`` *sibling* faults — other pending proxy-outs that
  share a demander with the faulting proxy and live on the same provider
  site — piggyback their own ``demand`` calls on the round trip through
  one :class:`~repro.rmi.protocol.InvokeBatchRequest`;
* concurrent faults on one target coalesce: the first thread becomes the
  demand leader, later threads wait for its package instead of issuing
  duplicate round trips.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import graphwalk
from repro.core.interfaces import UNBOUNDED, ReplicationMode
from repro.core.proxy_out import ProxyOutBase
from repro.core.replication import integrate_package
from repro.util.errors import DisconnectedError, ObjectFaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site

#: Seconds a coalesced fault waits for the leading demand before giving up.
COALESCE_TIMEOUT_S = 60.0


def resolve_fault(site: "Site", proxy: ProxyOutBase) -> object:
    """Resolve ``proxy`` to a local replica, splicing all demanders.

    The ``fault_resolved`` event publishes *inside* the fault span so
    subscribers (the site logger) observe the causal trace context of the
    resolution that produced the replica.
    """
    if proxy._obi_resolved is not None:
        return _published(site, proxy, proxy._obi_resolved)

    target_id = proxy._obi_target_id
    with site.tracer.span("fault", name=target_id) as fault_span:
        # Another path may already have replicated the target (e.g. a wider
        # cluster fetched it, or a prefetching fault brought it along):
        # short-circuit without touching the network.
        local = site.local_object_for(target_id)
        if local is None:
            local = _demand(site, proxy)
        else:
            fault_span.set(local_hit=True)

        if proxy._obi_resolved is not None:
            # Lost a race: another thread spliced this very proxy while we
            # waited on the coalesced demand.
            return _published(site, proxy, proxy._obi_resolved)
        with site.tracer.span("splice", name=target_id) as splice_span:
            splice_span.set(rewritten=splice(proxy, local))
        site.finish_fault(proxy, local)
        return _published(site, proxy, local)


def _published(site: "Site", proxy: ProxyOutBase, replica: object) -> object:
    site.events.publish("fault_resolved", site=site, proxy=proxy, replica=replica)
    return replica


def _demand(site: "Site", proxy: ProxyOutBase) -> object:
    """One demand round trip, coalesced across concurrent faulting threads."""
    target_id = proxy._obi_target_id
    leader, handle = site.begin_demand(target_id)
    if not leader:
        site.fault_stats.add(coalesced_faults=1)
        with site.tracer.span("demand.wait", name=target_id, coalesced=True):
            if not handle.event.wait(COALESCE_TIMEOUT_S):
                raise ObjectFaultError(
                    f"timed out waiting for in-flight demand of {target_id!r}"
                )
            if handle.error is not None:
                raise handle.error
            if handle.result is None:
                raise ObjectFaultError(
                    f"in-flight demand for {target_id!r} completed without a replica"
                )
            return handle.result
    with site.tracer.span("demand", name=target_id):
        try:
            local = _demand_over_network(site, proxy)
        except BaseException as exc:
            site.finish_demand(target_id, handle, error=exc)
            raise
        site.finish_demand(target_id, handle, result=local)
        return local


def _demand_over_network(site: "Site", proxy: ProxyOutBase) -> object:
    mode = proxy._obi_mode
    if not mode.prefetch:
        # The paper's protocol, byte for byte: one demand, one package.
        package = _invoke_demand(site, proxy, mode)
        return _integrate_demand(site, proxy, package)

    siblings = _claim_siblings(site, proxy, limit=mode.prefetch)
    stats = site.fault_stats
    if not siblings:
        # No piggyback candidates: still one round trip, but the provider
        # widens the scope to mode.demand_scope() (see ProxyIn.demand).
        package = _invoke_demand(site, proxy, mode)
        stats.add(demands_batched=1, prefetch_hits=_read_ahead_count(mode, package))
        return _integrate_demand(site, proxy, package)

    calls = [(proxy._obi_provider, "demand", (mode,))]
    calls.extend(
        (sibling._obi_provider, "demand", (sibling._obi_mode,))
        for sibling, _handle in siblings
    )
    try:
        results = site.endpoint.invoke_batch(proxy._obi_provider.site_id, calls)
    except BaseException as exc:
        for sibling, handle in siblings:
            site.finish_demand(sibling._obi_target_id, handle, error=exc)
        raise
    stats.add(demands_batched=1)

    primary = results[0]
    if isinstance(primary, BaseException):
        for (sibling, handle), outcome in zip(siblings, results[1:]):
            _finish_sibling(site, sibling, handle, outcome)
        raise primary
    local = _integrate_demand(site, proxy, primary)
    stats.add(prefetch_hits=_read_ahead_count(mode, primary))
    for (sibling, handle), outcome in zip(siblings, results[1:]):
        _finish_sibling(site, sibling, handle, outcome)
    return local


def _invoke_demand(site: "Site", proxy: ProxyOutBase, mode: ReplicationMode) -> object:
    try:
        return site.endpoint.invoke(proxy._obi_provider, "demand", (mode,))
    except DisconnectedError:
        raise  # the mobility layer reacts to disconnections specifically
    except ObjectFaultError:
        raise


def _integrate_demand(site: "Site", proxy: ProxyOutBase, package: object) -> object:
    local = integrate_package(site, package)
    if local is None:
        raise ObjectFaultError(
            f"demand for {proxy._obi_target_id!r} returned no replica"
        )
    return local


def _claim_siblings(
    site: "Site", proxy: ProxyOutBase, *, limit: int
) -> list[tuple[ProxyOutBase, object]]:
    """Pending sibling proxies claimed for piggybacking on this demand.

    A sibling shares at least one demander with the faulting proxy (it is
    part of the same frontier the application is walking) and its provider
    lives on the same site, so its demand can share the round trip.  Each
    claimed sibling is registered in-flight so concurrent faults on it
    coalesce onto this batch.
    """
    claimed: list[tuple[ProxyOutBase, object]] = []
    for candidate in site.pending_siblings(proxy, limit=limit):
        leader, handle = site.begin_demand(candidate._obi_target_id)
        if leader:
            claimed.append((candidate, handle))
    return claimed


def _finish_sibling(
    site: "Site", sibling: ProxyOutBase, handle: object, outcome: object
) -> None:
    """Integrate one piggybacked demand result; failures stay local to the
    sibling (it simply remains an unresolved fault for later)."""
    target_id = sibling._obi_target_id
    if isinstance(outcome, BaseException):
        site.finish_demand(target_id, handle, error=outcome)
        return
    try:
        replica = _integrate_demand(site, sibling, outcome)
    except Exception as exc:  # noqa: BLE001 - a bad sibling package stays local
        site.finish_demand(target_id, handle, error=exc)
        return
    site.finish_demand(target_id, handle, result=replica)
    site.fault_stats.add(prefetch_hits=1)
    if sibling._obi_resolved is None:
        splice(sibling, replica)
        site.finish_fault(sibling, replica)


def _read_ahead_count(mode: ReplicationMode, package: object) -> int:
    """Objects a widened demand carried beyond the mode's own chunk."""
    if mode.clustered or mode.chunk == UNBOUNDED:
        return 0
    return max(0, package.object_count - mode.chunk)


def splice(proxy: ProxyOutBase, replica: object) -> int:
    """The paper's ``updateMember``: replace the proxy-out with the
    replica in every demander; returns the number of rewritten positions."""
    replacements = {id(proxy): replica}
    rewritten = 0
    for holder in proxy._obi_demanders:
        rewritten += graphwalk.replace_references(holder, replacements)
    proxy._obi_resolved = replica
    proxy._obi_demanders.clear()
    proxy._obi_demander_ids.clear()
    return rewritten
