"""OBIWAN reproduction: incremental replication for mobility support.

This package reimplements, in Python, the OBIWAN middleware described in
Veiga & Ferreira, *Incremental Replication for Mobility Support in OBIWAN*
(ICDCS 2002 Workshops).  OBIWAN lets a distributed application decide at run
time whether an object is invoked remotely (RMI) or locally on a replica
(LMI), and replicates object graphs incrementally through proxy-out /
proxy-in pairs with automatic object-fault detection and resolution.

The package layers are, bottom-up:

``repro.util``
    Clocks (wall and simulated), identifier generation, the exception
    hierarchy and byte-size accounting shared by every layer.
``repro.simnet``
    A message-level network substrate with two transports: a
    deterministic simulated-time loopback and a pooled localhost TCP
    transport on the wall clock, both with latency/bandwidth link models
    and partition injection.
``repro.serial``
    A cycle-safe object-graph serializer with swizzle hooks, used to move
    replica state between sites (replicas are always true copies).
``repro.rmi``
    The remote-method-invocation substrate: name server, remote references,
    skeletons and dynamic stubs.
``repro.core``
    The paper's contribution: proxy-in/proxy-out machinery, the incremental
    replication protocol, dynamic clusters and the ``obicomp`` class
    compiler.
``repro.consistency``
    The consistency-protocol library the paper leaves to the programmer:
    manual get/put, last-writer-wins, version vectors, invalidation, leases
    and epidemic dissemination.
``repro.mobility``
    Mobility support: connectivity management, hoarding, disconnected
    operation and relaxed (optimistic) transactions with reconciliation.
``repro.bench``
    The calibrated benchmark harness that regenerates every figure of the
    paper's evaluation.

Quickstart::

    from repro import obiwan

    world = obiwan.World.loopback()
    provider = world.create_site("S2")
    consumer = world.create_site("S1")

    @obiwan.compile
    class Counter:
        def __init__(self) -> None:
            self.value = 0
        def increment(self) -> int:
            self.value += 1
            return self.value

    master = provider.export(Counter(), name="counter")
    replica = consumer.replicate("counter")       # LMI from here on
    replica.increment()
    consumer.put_back(replica)                    # push state to master
"""

from repro import obiwan
from repro.version import __version__

__all__ = ["obiwan", "__version__"]
