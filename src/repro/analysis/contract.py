"""The contract obilint enforces, derived from the live runtime.

Rather than hard-coding a parallel list of "reserved" names and "safe"
types that would rot as the platform evolves, this module interrogates
the same machinery obicomp and the serializer use:

* reserved proxy-in method names come from running
  :func:`~repro.core.obicomp.interface.derive_interface` over
  :class:`~repro.core.proxy_in.ProxyIn` — literally the obicomp view of
  the control surface — plus the paper's fault-resolution verbs;
* the wire-encodable builtin types mirror :mod:`repro.serial.tags` (one
  entry per tag byte);
* the replication error hierarchy is read off
  :mod:`repro.util.errors`.

``tests/analysis/test_contract.py`` cross-checks these sets against the
serializer registry so a drift fails the suite, not a user.
"""

from __future__ import annotations

from repro.core.obicomp.interface import derive_interface
from repro.core.proxy_in import ProxyIn
from repro.util import errors as _errors

#: Method names a compiled class must not define: obicomp's proxy-in
#: control surface (get/put/demand/get_version) plus the paper's
#: fault-resolution verbs, which the graph-walker treats specially.
RESERVED_CONTROL_METHODS: frozenset[str] = frozenset(
    derive_interface(ProxyIn).methods
) | frozenset({"updateMember", "update_member", "setProvider", "setDemander"})

#: RMI verbs of the put family — write-back operations on a proxy-in or
#: consistency coordinator.
PUT_FAMILY_VERBS: frozenset[str] = frozenset({"put", "try_put", "vector_put"})

#: RMI verbs that acquire replica state — the legitimate "source" a
#: component must reach before it may emit a put-family verb.
#: The feed's acquisition verb is how a follower's mirrors come to
#: exist, so its write-through ``put`` is a legitimate write-back, not
#: unsourced traffic.
REPLICA_SOURCE_VERBS: frozenset[str] = frozenset({"get", "demand", "feed_subscribe"})

#: Callables that apply a change-feed frame to local tables.  OBI210
#: requires every call site to sit below an epoch comparison in the same
#: function — applying a deposed primary's frame without the check is a
#: split-brain write (see :mod:`repro.feed.apply`).
FEED_APPLY_CALLEES: frozenset[str] = frozenset({"apply_feed_frame"})

#: Builtin types with a wire tag in :mod:`repro.serial.tags`.  Everything
#: else crosses the wire only via the type registry.
WIRE_ENCODABLE_BUILTINS: frozenset[type] = frozenset(
    {type(None), bool, int, float, str, bytes, bytearray, list, tuple, dict, set, frozenset}
)


def schema_codec_names() -> frozenset[str]:
    """Wire names with a generated obicodec fast-path codec.

    The contract view of PR 7's compiled serialization: every name here
    corresponds to an ``OBJECT_SCHEMA`` frame the runtime may emit, and
    must resolve to the same registered class on every site.  Delegates
    to the live codec cache so the set never drifts from the runtime.
    """
    from repro.serial.compiled import registered_codec_names

    return registered_codec_names()

#: Exception class names in the OBIWAN hierarchy that must never be
#: silently swallowed — a dropped replication failure corrupts the
#: consumer's view of the object graph.
REPLICATION_ERROR_NAMES: frozenset[str] = frozenset(
    name
    for name, obj in vars(_errors).items()
    if isinstance(obj, type)
    and issubclass(obj, _errors.ObiwanError)
)

#: Module-level callables that read ambient time or entropy.  Outside
#: :mod:`repro.util.clock` they break deterministic simnet replays.
NONDETERMINISTIC_CALLS: dict[str, str] = {
    "time.time": "use a Clock from repro.util.clock",
    "time.time_ns": "use a Clock from repro.util.clock",
    "time.monotonic": "use a Clock from repro.util.clock",
    "time.monotonic_ns": "use a Clock from repro.util.clock",
    "time.perf_counter": "use a Clock from repro.util.clock",
    "time.perf_counter_ns": "use a Clock from repro.util.clock",
    "datetime.datetime.now": "use a Clock from repro.util.clock",
    "datetime.datetime.utcnow": "use a Clock from repro.util.clock",
}

#: ``random`` module functions drawing from the shared, unseeded global
#: generator.  A seeded ``random.Random(seed)`` instance is fine.
GLOBAL_RANDOM_MODULE = "random"

#: The one module allowed to touch ambient time directly.
CLOCK_MODULE_SUFFIX = "util/clock.py"

#: Modules allowed to touch ambient time: the clock abstraction itself,
#: and the obitrace span context — a :class:`repro.obs.context.Tracer`
#: built without a site falls back to ``time.perf_counter`` (sites always
#: inject ``site.clock.now``, so traced runs stay replay-deterministic).
AMBIENT_CLOCK_MODULE_SUFFIXES: frozenset[str] = frozenset(
    {CLOCK_MODULE_SUFFIX, "obs/context.py"}
)

#: Call attribute names that put bytes on the wire.  Holding a lock
#: across one of these serializes the network under the lock and — for
#: reentrant handler paths — deadlocks.
NETWORK_SEND_METHODS: frozenset[str] = frozenset(
    {"send", "sendall", "sendto", "call", "cast", "invoke", "invoke_oneway", "_transmit"}
)

#: Decorator names that declare a method a lock-free snapshot read
#: (``repro.core.striping.snapshot_read``).  The flow layer keys on the
#: declaration: OBI203 exempts the unlocked *reads*, and OBI209
#: enforces that no path out of a declared snapshot read mutates
#: guarded state.
SNAPSHOT_READ_DECORATORS: frozenset[str] = frozenset({"snapshot_read"})
