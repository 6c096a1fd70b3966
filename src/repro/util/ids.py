"""Identifier generation for sites, objects and requests.

Identifiers are short, human-readable strings with a type prefix
(``site:…``, ``obj:…``, ``req:…``).  They are generated from per-process
monotonic counters rather than UUIDs so that logs, test failures and
benchmark traces are stable and easy to read; uniqueness within one world
(one test, one benchmark run, one example) is all the middleware needs.
"""

from __future__ import annotations

import itertools
import threading


class IdGenerator:
    """Thread-safe monotonic id generator with a fixed prefix.

    >>> gen = IdGenerator("obj")
    >>> gen()
    'obj:1'
    >>> gen()
    'obj:2'
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def __call__(self) -> str:
        with self._lock:
            return f"{self.prefix}:{next(self._counter)}"

    def reset(self) -> None:
        """Restart numbering — only for deterministic test setups."""
        with self._lock:
            self._counter = itertools.count(1)


_site_ids = IdGenerator("site")
_object_ids = IdGenerator("obj")
_request_ids = IdGenerator("req")
_trace_ids = IdGenerator("trace")
_span_ids = IdGenerator("span")


def new_site_id() -> str:
    """Return a fresh site identifier."""
    return _site_ids()


def new_object_id() -> str:
    """Return a fresh export identifier (for exported services; a
    proxy-in is exported under its object's obi id instead)."""
    return _object_ids()


def new_request_id() -> str:
    """Return a fresh request identifier for request/response matching."""
    return _request_ids()


def new_trace_id() -> str:
    """Return a fresh trace identifier (one causal cascade)."""
    return _trace_ids()


def new_span_id() -> str:
    """Return a fresh span identifier (one step within a trace)."""
    return _span_ids()
