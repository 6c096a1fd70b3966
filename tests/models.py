"""Shared OBIWAN-compiled model classes for the test suite.

obicomp registers classes globally (one interface name per class), so
test modules share these instead of each defining their own ``Node``.
"""

from __future__ import annotations

from repro import obiwan


@obiwan.compile
class Box:
    """A single-value cell — the smallest useful OBIWAN object."""

    def __init__(self, value: object = None):
        self.value = value

    def get(self) -> object:  # obilint: disable=OBI102 -- the suite's one-value cell; tests call get() on a local master or replica, and test_proxy_in calls the proxy-in's own get on purpose
        return self.value

    def set(self, value: object) -> object:
        self.value = value
        return value


@obiwan.compile
class Chain:
    """A linked-list node (the paper's list workload shape)."""

    def __init__(self, index: int = 0, nxt: "Chain | None" = None):
        self.index = index
        self.next = nxt
        self.payload = b""

    def get_index(self) -> int:
        return self.index

    def set_index(self, index: int) -> int:
        self.index = index
        return index

    def get_next(self) -> "Chain | None":
        return self.next

    def set_next(self, nxt: "Chain | None") -> None:
        self.next = nxt


@obiwan.compile
class Folder:
    """A container node: children live inside standard containers."""

    def __init__(self, name: str = ""):
        self.name = name
        self.children: list[object] = []
        self.index: dict[str, object] = {}
        self.tags: set[str] = set()

    def get_name(self) -> str:
        return self.name

    def add(self, key: str, child: object) -> None:
        self.children.append(child)
        self.index[key] = child

    def child(self, key: str) -> object:
        return self.index[key]

    def child_count(self) -> int:
        return len(self.children)


@obiwan.compile
class Counter:
    """Mutable state with read and write methods."""

    def __init__(self, value: int = 0):
        self.value = value

    def increment(self, by: int = 1) -> int:
        self.value += by
        return self.value

    def read(self) -> int:
        return self.value


@obiwan.compile
class GraphNode:
    """An arbitrary-fanout node for property-based graph tests."""

    def __init__(self, value: int = 0):
        self.value = value
        self.refs: list["GraphNode"] = []

    def get_value(self) -> int:
        return self.value

    def set_value(self, value: int) -> None:
        self.value = value

    def get_refs(self) -> list["GraphNode"]:
        return list(self.refs)

    def link(self, other: "GraphNode") -> None:
        self.refs.append(other)


def make_chain(length: int) -> Chain:
    """Build ``0 -> 1 -> … -> length-1`` and return the head."""
    head: Chain | None = None
    for index in range(length - 1, -1, -1):
        head = Chain(index=index, nxt=head)
    assert head is not None
    return head


def chain_indices(head: object) -> list[int]:
    """Walk a chain via its interface, resolving faults as they come."""
    from repro.core.proxy_out import ProxyOutBase

    out = []
    node = head
    while node is not None:
        out.append(node.get_index())
        node = node.get_next()
        if isinstance(node, ProxyOutBase) and node._obi_resolved is not None:
            node = node._obi_resolved
    return out
