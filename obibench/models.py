"""The benchmark's own object classes and graph builders.

They live here, not in ``repro.bench.workloads``, so that a later change
may delete that module without touching the benchmark.  Every class is a
plain object compiled with ``obiwan.compile``, the way an application
would write it.  Field values the workloads edit keep a fixed encoded
width, so bytes on the wire per operation do not depend on the seed.
"""

from __future__ import annotations

import random

from repro import obiwan

#: Edited integers are drawn from this range: every value encodes to the
#: same number of bytes.
FIXED_WIDTH_INT = (1 << 30, (1 << 31) - 1)


def fixed_int(rng: random.Random) -> int:
    return rng.randint(*FIXED_WIDTH_INT)


def fixed_text(rng: random.Random, length: int) -> str:
    """Seeded ASCII text of exactly ``length`` bytes on the wire."""
    return f"{rng.getrandbits(4 * length):0{length}x}"


@obiwan.compile
class AgendaEntry:
    """One entry of the mobile user's linked agenda (``mobile_session``)."""

    def __init__(self, index: int = 0, text: str = "", nxt: "AgendaEntry | None" = None):
        self.index = index
        self.text = text
        self.done = False
        self.next = nxt

    def get_index(self) -> int:
        return self.index

    def get_next(self) -> "AgendaEntry | None":
        return self.next


@obiwan.compile
class WalkNode:
    """The paper's Fig. 5 list node (``fault_walk``)."""

    def __init__(self, index: int = 0, payload: bytes = b"", nxt: "WalkNode | None" = None):
        self.index = index
        self.payload = payload
        self.next = nxt

    def get_index(self) -> int:
        return self.index

    def get_next(self) -> "WalkNode | None":
        return self.next


@obiwan.compile
class BulkNode:
    """A binary-tree node carrying a large payload (``bulk_sync``)."""

    def __init__(self, index: int = 0, payload: bytes = b""):
        self.index = index
        self.payload = payload
        self.stamp = 0
        self.left: "BulkNode | None" = None
        self.right: "BulkNode | None" = None

    def get_index(self) -> int:
        return self.index


@obiwan.compile
class Record:
    """Eight scalar fields and a 1-KB blob (``sync_mix``)."""

    def __init__(self, key: int = 0, blob: bytes = b""):
        self.key = key
        self.f1 = FIXED_WIDTH_INT[0]
        self.f2 = FIXED_WIDTH_INT[0]
        self.f3 = FIXED_WIDTH_INT[0]
        self.f4 = FIXED_WIDTH_INT[0]
        self.f5 = 0.5
        self.f6 = True
        self.f7 = "record"
        self.blob = blob

    def get_key(self) -> int:
        return self.key


#: The integer fields of :class:`Record` the edit operations rewrite.
RECORD_EDIT_FIELDS = ("f1", "f2", "f3", "f4")


def make_agenda(length: int, text_bytes: int, rng: random.Random) -> AgendaEntry:
    head: AgendaEntry | None = None
    for index in range(length - 1, -1, -1):
        head = AgendaEntry(index, fixed_text(rng, text_bytes), head)
    assert head is not None
    return head


def make_walk_list(length: int, payload_bytes: int) -> WalkNode:
    head: WalkNode | None = None
    for index in range(length - 1, -1, -1):
        head = WalkNode(index, b"\xa5" * payload_bytes, head)
    assert head is not None
    return head


def make_bulk_tree(depth: int, payload_bytes: int, rng: random.Random) -> tuple[BulkNode, int]:
    """A complete binary tree; returns ``(root, node_count)``."""
    count = 0

    def build(level: int) -> BulkNode:
        nonlocal count
        node = BulkNode(count, rng.randbytes(payload_bytes))
        count += 1
        if level < depth:
            node.left = build(level + 1)
            node.right = build(level + 1)
        return node

    return build(0), count


def bulk_nodes(root: BulkNode) -> list[BulkNode]:
    """Every node of a fully local tree, root first."""
    nodes: list[BulkNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return nodes


def make_records(count: int, blob_bytes: int, rng: random.Random) -> list[Record]:
    return [Record(key, rng.randbytes(blob_bytes)) for key in range(count)]
