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

Concurrent faults on one target coalesce: the first thread becomes the
demand leader, later threads wait for its package instead of issuing
duplicate round trips.  A fault demands exactly its proxy's mode — the
chunk the application picked is the only read-ahead — in one ``invoke``.

A caller may name the demand's scope itself: :meth:`Hoard.prefetch
<repro.mobility.hoard.Hoard.prefetch>` resolves each frontier proxy with
its closure as the scope, through the same steps — in-flight slot,
integration under the proxy's own mode, splice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import graphwalk
from repro.core.interfaces import ReplicationMode
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

    A miss demands ``scope`` when given, else the proxy's own mode.

    The ``fault_resolved`` event publishes *inside* the fault span so
    subscribers (the site logger) observe the causal trace context of the
    resolution that produced the replica.
    """
    if proxy._obi_resolved is not None:
        return _published(site, proxy, proxy._obi_resolved)

    target_id = proxy._obi_target_id
    with site.tracer.span("fault", name=target_id) as fault_span:
        # Another path may already have replicated the target (e.g. a wider
        # cluster fetched it, or another fault's chunk brought it along):
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
    """One demand round trip, coalesced across concurrent faulting threads.

    The leader demands ``scope`` (else the proxy's own mode) in one
    ``invoke`` and integrates the package under the proxy's mode, keeping
    every replica the site already holds; it then releases the in-flight
    slot with the replica or the error, which wakes the coalesced faults.
    """
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
            package = _invoke_demand(site, proxy, proxy._obi_mode if scope is None else scope)
            local = _integrate_demand(site, proxy, package)
        except BaseException as exc:
            site.finish_demand(target_id, handle, error=exc)
            raise
        site.finish_demand(target_id, handle, result=local)
        return local


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
