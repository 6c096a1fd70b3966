"""A1–A4 — ablation benchmarks (design-choice probes beyond the paper).

Each ablation isolates one mechanism the paper's evaluation bundles:
proxy-pair cost, fault latency, consistency traffic, transport choice.
"""

from repro.bench import ablations


def test_ablate_proxy_pairs(once):
    """A1: per-object pairs cost real time; clustering removes it."""
    rows = once(ablations.ablate_proxy_pairs)
    for row in rows:
        assert row.clustered_ms < row.per_object_ms
    # The gap widens with chunk size: more pairs per batch, plus the
    # superlinear burst penalty.
    ratios = [row.overhead_ratio for row in rows]
    assert ratios == sorted(ratios)
    print("\nA1:", [(r.chunk, f"{r.overhead_ratio:.2f}x") for r in rows])


def test_ablate_prefetch(once):
    """A2: the paper's footnote — perfect prefetching eliminates fault
    latency from the invocation path."""
    result = once(ablations.ablate_prefetch)
    assert result.latency_eliminated
    # Total time moves from traversal to prefetch, it does not vanish:
    # the prefetched traversal is pure LMI.
    assert result.prefetch_total_ms < result.demand_total_ms / 50
    print(
        f"\nA2: demand worst={result.demand_worst_invocation_ms:.2f}ms, "
        f"prefetched worst={result.prefetch_worst_invocation_ms:.4f}ms"
    )


def test_ablate_consistency(once):
    """A3: protocol choice trades freshness for time and bytes."""
    rows = once(ablations.ablate_consistency)
    by_name = {row.protocol: row for row in rows}

    # Polling is the most expensive in both time and bytes.
    for name in ("invalidation", "lease-50ms", "epidemic"):
        assert by_name[name].total_ms < by_name["poll"].total_ms
        assert by_name[name].network_bytes < by_name["poll"].network_bytes

    # Poll, invalidation and epidemic never serve stale reads here;
    # leases do — that is exactly the staleness they trade away.
    assert by_name["poll"].stale_reads == 0
    assert by_name["invalidation"].stale_reads == 0
    assert by_name["epidemic"].stale_reads == 0
    assert by_name["lease-50ms"].stale_reads > 0
    print("\nA3:", [(r.protocol, f"{r.total_ms:.0f}ms", r.network_bytes) for r in rows])


def test_ablate_transport(once):
    """A4: both transports produce identical application results."""
    rows = once(ablations.ablate_transport)
    assert len(rows) == 2
    for row in rows:
        assert row.correct, f"{row.transport} produced a wrong traversal sum"
    sums = {row.traversal_sum for row in rows}
    assert len(sums) == 1
    print("\nA4:", [(r.transport, f"{r.wall_seconds * 1e3:.1f}ms wall") for r in rows])
