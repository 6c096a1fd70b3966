"""Access control for exported objects.

The OBIWAN platform's journal version (TPDS 2003, with Carlos Ribeiro)
adds a security dimension the workshop paper omits; this module provides
its practical core: **per-exported-object access policies** evaluated
against the calling site's identity.

An :class:`AccessPolicy` is an ordered rule list over (site pattern,
method pattern) with a default; an :class:`AccessGuard` wraps any
exported object (typically a proxy-in) and enforces the policy on every
dispatched method.  Local calls (no remote caller) are never restricted
— security guards the network boundary, not the owner.

Identity here is the transport-level site id, which the in-process
transports make trustworthy by construction; a production deployment
would substitute authenticated channel identities without changing this
layer's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING

from repro.util.errors import SecurityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rmi.endpoint import RmiEndpoint


@dataclass(frozen=True, slots=True)
class AccessRule:
    """One ordered rule: first match wins."""

    site_pattern: str
    method_pattern: str
    allow: bool

    def matches(self, site: str, method: str) -> bool:
        return fnmatchcase(site, self.site_pattern) and fnmatchcase(
            method, self.method_pattern
        )


@dataclass
class AccessPolicy:
    """Ordered allow/deny rules with a default verdict.

    >>> policy = AccessPolicy().allow("trusted-*").deny("*", "put")
    evaluates rules in the order added; unmatched calls fall through to
    ``default_allow``.
    """

    default_allow: bool = False
    rules: list[AccessRule] = field(default_factory=list)

    def allow(self, sites: str = "*", methods: str = "*") -> "AccessPolicy":
        self.rules.append(AccessRule(sites, methods, allow=True))
        return self

    def deny(self, sites: str = "*", methods: str = "*") -> "AccessPolicy":
        self.rules.append(AccessRule(sites, methods, allow=False))
        return self

    def allows(self, caller: str | None, method: str) -> bool:
        """Evaluate; ``caller is None`` (a local call) is always allowed."""
        if caller is None:
            return True
        for rule in self.rules:
            if rule.matches(caller, method):
                return rule.allow
        return self.default_allow

    @classmethod
    def read_only(cls, *, read_methods: str = "get*") -> "AccessPolicy":
        """Everyone may fetch (``get``/``get_version``/``demand``) but
        nobody may ``put`` — public reference data."""
        policy = cls(default_allow=False)
        policy.allow("*", read_methods)
        policy.allow("*", "demand")
        return policy

    @classmethod
    def sites_only(cls, *patterns: str) -> "AccessPolicy":
        """Full access for the named site patterns, nothing for others."""
        policy = cls(default_allow=False)
        for pattern in patterns:
            policy.allow(pattern, "*")
        return policy


class AccessGuard:
    """Policy-enforcing wrapper around an exported object.

    Export the guard in place of the target; every dispatched method
    resolves through :meth:`__getattr__`, which checks the policy against
    the endpoint's current remote caller before handing out the bound
    method.
    """

    def __init__(self, endpoint: "RmiEndpoint", target: object, policy: AccessPolicy):
        # Plain attribute writes; __getattr__ only fires for misses.
        self._endpoint = endpoint
        self._target = target
        self._policy = policy
        self.denials = 0

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        self._authorize(name)
        return getattr(self._target, name)

    def _authorize(self, method: str) -> None:
        caller = self._endpoint.current_caller
        if not self._policy.allows(caller, method):
            self.denials += 1
            raise SecurityError(
                f"site {caller!r} is not allowed to call {method!r} on this object"
            )

    def __repr__(self) -> str:
        return f"<AccessGuard around {type(self._target).__name__}, {self.denials} denials>"


def authorize(exported: object, method: str) -> None:
    """Check ``method`` against ``exported``'s policy for the remote caller
    being served on this thread; a no-op for unguarded exports.

    For work that reaches an object *without* dispatching through its own
    export — a multi-entry ``put`` names masters by oid — so the guard a
    master was exported behind still decides who may write it.  Raises
    :class:`SecurityError` and counts the denial on the guard.
    """
    if isinstance(exported, AccessGuard):
        exported._authorize(method)
