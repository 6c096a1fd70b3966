"""Object-fault resolution (paper Section 2.2, steps 1–6 of ``demand``).

When an interface method is invoked on an unresolved proxy-out:

1. the proxy's provider (the target's proxy-in) is asked to ``demand`` a
   package — replicating "the next *k* objects" under the proxy's mode;
2. the package is integrated locally under the proxy's mode; a replica
   the site already holds keeps its state (a demand never overwrites a
   local edit), so the package only adds what was missing;
3. every demander that was holding the proxy-out has the fresh replica
   spliced in (``updateMember``) — after which "further invocations …
   will be normal direct invocations with no indirection at all";
4. the proxy-out records its resolution so aliased references still
   forward correctly, and is handed to GC accounting: once application
   references drop, the ordinary garbage collector reclaims it.

The batched fast path (``mode.prefetch > 0``) keeps those semantics but
re-schedules the transfers:

* the demand asks for a widened scope (``mode.demand_scope()``) so the
  provider returns the target plus up to ``prefetch`` read-ahead objects
  of the incremental chunk in the same round trip;
* up to ``prefetch`` *sibling* faults — other pending proxy-outs that
  share a demander with the faulting proxy and live on the same provider
  site — piggyback their own ``demand`` calls on the round trip through
  one :class:`~repro.rmi.protocol.InvokeBatchRequest`;
* concurrent faults on one target coalesce: the first thread becomes the
  demand leader, later threads wait for its package instead of issuing
  duplicate round trips.

A caller may name the demand's scope itself: :meth:`Hoard.prefetch
<repro.mobility.hoard.Hoard.prefetch>` resolves each frontier proxy with
its closure as the scope, through the same steps — in-flight slot,
integration under the proxy's own mode, splice — and with no siblings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import graphwalk
from repro.core.interfaces import UNBOUNDED, ReplicationMode
from repro.core.proxy_out import ProxyOutBase
from repro.core.replication import integrate_package
from repro.util.errors import ObjectFaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import Site

#: Seconds a coalesced fault waits for the leading demand before giving up.
COALESCE_TIMEOUT_S = 60.0


def resolve_fault(
    site: "Site", proxy: ProxyOutBase, *, scope: ReplicationMode | None = None
) -> object:
    """Resolve ``proxy`` to a local replica, splicing all demanders.

    A miss demands ``scope`` when given, else the proxy's own
    ``mode.demand_scope()`` with its prefetch siblings.

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
            local = _demand(site, proxy, scope)
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


def _demand(site: "Site", proxy: ProxyOutBase, scope: ReplicationMode | None) -> object:
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
        return _demand_over_network(site, proxy, handle, scope)


def _demand_over_network(
    site: "Site", proxy: ProxyOutBase, handle: object, scope: ReplicationMode | None
) -> object:
    mode = proxy._obi_mode
    # The paper's protocol is one demand, one package; prefetch widens the
    # scope and piggybacks pending siblings on the same round trip.  A
    # caller's own scope travels alone.
    read_ahead = scope is None and mode.prefetch > 0
    siblings = _claim_siblings(site, proxy, limit=mode.prefetch) if read_ahead else []
    demanded = mode.demand_scope() if scope is None else scope
    outcomes = _demand_batch(site, [(proxy, handle, demanded), *siblings])
    if read_ahead:
        site.fault_stats.add(demands_batched=1)
    for (sibling, _handle, _scope), outcome in zip(siblings, outcomes[1:]):
        # A failed sibling stays local: it remains a fault for later.
        if not isinstance(outcome, BaseException):
            site.fault_stats.add(prefetch_hits=1)
            if sibling._obi_resolved is None:  # no coalesced fault spliced it
                splice(sibling, outcome)
                site.finish_fault(sibling, outcome)
    local = outcomes[0]
    if isinstance(local, BaseException):
        raise local
    return local


def _demand_batch(
    site: "Site", claims: "list[tuple[ProxyOutBase, object, ReplicationMode]]"
) -> list[object]:
    """Demand every claim's scope from one provider site in one round trip.

    Each claim is ``(proxy, handle, scope)``: a pending proxy-out whose
    in-flight slot the caller holds (:meth:`Site.begin_demand`) and the
    scope its demand asks for; every proxy names the same provider site.
    One claim is one ``invoke``, several are one ``invoke_batch`` frame.
    Each package integrates under its own proxy's mode and keeps every
    replica the site already holds; each slot is then released with its
    replica or its error, which wakes the faults coalesced on it.
    Returns, aligned with ``claims``, each replica or the exception its
    demand ended in.  A failed round trip releases every slot and raises.
    """
    try:
        if len(claims) == 1:
            proxy, _handle, scope = claims[0]
            results = [_invoke_demand(site, proxy, scope)]
        else:
            results = site.endpoint.invoke_batch(
                claims[0][0]._obi_provider.site_id,
                [(proxy._obi_provider, "demand", (scope,)) for proxy, _handle, scope in claims],
            )
    except BaseException as exc:
        for proxy, handle, _scope in claims:
            site.finish_demand(proxy._obi_target_id, handle, error=exc)
        raise
    outcomes: list[object] = []
    read_ahead = 0
    for (proxy, handle, _scope), outcome in zip(claims, results):
        if not isinstance(outcome, BaseException):
            try:
                replica = _integrate_demand(site, proxy, outcome)
            except Exception as exc:  # noqa: BLE001 - released below, returned
                replica = exc
            else:
                read_ahead += _read_ahead_count(proxy._obi_mode, outcome)
            outcome = replica
        if isinstance(outcome, BaseException):
            site.finish_demand(proxy._obi_target_id, handle, error=outcome)
        else:
            site.finish_demand(proxy._obi_target_id, handle, result=outcome)
        outcomes.append(outcome)
    if read_ahead:
        site.fault_stats.add(prefetch_hits=read_ahead)
    return outcomes


def _invoke_demand(site: "Site", proxy: ProxyOutBase, scope: ReplicationMode) -> object:
    return site.endpoint.invoke(proxy._obi_provider, "demand", (scope,))


def _integrate_demand(site: "Site", proxy: ProxyOutBase, package: object) -> object:
    """Integrate a demanded package under the faulting proxy's own mode,
    keeping every replica this site already holds."""
    local = integrate_package(
        site, package, proxy._obi_mode, proxy._obi_provider.site_id, keep_local=True
    )
    if local is None:
        raise ObjectFaultError(
            f"demand for {proxy._obi_target_id!r} returned no replica"
        )
    return local


def _claim_siblings(
    site: "Site", proxy: ProxyOutBase, *, limit: int
) -> list[tuple[ProxyOutBase, object, ReplicationMode]]:
    """Pending sibling proxies claimed for piggybacking on this demand.

    A sibling shares at least one demander with the faulting proxy (it is
    part of the same frontier the application is walking) and its provider
    lives on the same site, so its demand can share the round trip.  Each
    claimed sibling is registered in-flight so concurrent faults on it
    coalesce onto this batch.
    """
    claimed: list[tuple[ProxyOutBase, object, ReplicationMode]] = []
    for candidate in site.pending_siblings(proxy, limit=limit):
        leader, handle = site.begin_demand(candidate._obi_target_id)
        if leader:
            claimed.append((candidate, handle, candidate._obi_mode.demand_scope()))
    return claimed


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
