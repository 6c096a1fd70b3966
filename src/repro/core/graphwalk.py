"""Object-graph traversal and reference surgery.

The replication engine needs three graph operations:

* enumerate the OBIWAN references an object holds (directly or inside
  standard containers) — for BFS during package building and for demander
  registration;
* breadth-first traversal bounded by count/depth — the paper's
  chunked/clustered reachability collection;
* reference replacement — the paper's ``updateMember``: splice a freshly
  replicated object into the holder that was pointing at its proxy-out.

References are found in instance attributes and inside (arbitrarily
nested) ``list`` / ``tuple`` / ``dict`` / ``set`` / ``frozenset`` values —
the containers the wire format supports.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.core.meta import is_obiwan
from repro.core.proxy_out import ProxyOutBase


#: Types that can hold no reference: skipped without a closer look.
_LEAVES = frozenset({int, float, bool, str, bytes, type(None)})


def is_node(value: object) -> bool:
    """True for values that are OBIWAN graph nodes (objects or proxy-outs)."""
    return isinstance(value, ProxyOutBase) or is_obiwan(value)


def direct_references(obj: object) -> Iterator[object]:
    """Yield every OBIWAN node reachable from ``obj`` in one logical hop.

    One logical hop crosses any nesting of standard containers but does
    not enter other OBIWAN objects.  Nodes referenced from several places
    are yielded once per holding position (callers dedupe as needed).
    """
    for value in vars(obj).values():
        if type(value) in _LEAVES:
            continue
        if is_node(value):
            yield value
        else:
            yield from _scan(value)


def _scan(value: object) -> Iterator[object]:
    if is_node(value):
        yield value
        return
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _scan(key)
            yield from _scan(item)
        return
    if isinstance(value, list | tuple | set | frozenset):
        for item in value:
            yield from _scan(item)


def breadth_first(
    root: object,
    *,
    max_objects: int = 0,
    max_depth: int = 0,
    resolved: list[tuple[object, ProxyOutBase]] | None = None,
) -> list[object]:
    """Collect OBIWAN objects reachable from ``root`` in BFS order.

    ``root`` is always first.  Zero bounds mean unbounded.  Proxy-outs are
    never *entered* (their referents live elsewhere), and unresolved
    proxy-outs are not collected — they are the frontier.  A resolved
    proxy-out is traversed through to its target replica; when
    ``resolved`` is given, every (member, resolved proxy-out it holds)
    pair is appended to it, members at the depth bound included.
    """
    resolved_root = _through(root)
    ordered: list[object] = []
    seen: set[int] = set()
    queue: deque[tuple[object, int]] = deque([(resolved_root, 0)])
    while queue:
        node, depth = queue.popleft()
        node = _through(node)
        if isinstance(node, ProxyOutBase):
            continue  # unresolved frontier
        if id(node) in seen:
            continue
        if max_objects and len(ordered) >= max_objects:
            break
        seen.add(id(node))
        ordered.append(node)
        expand = not (max_depth and depth >= max_depth)
        if not expand and resolved is None:
            continue
        for ref in direct_references(node):
            if (
                resolved is not None
                and isinstance(ref, ProxyOutBase)
                and ref._obi_resolved is not None
            ):
                resolved.append((node, ref))
            if expand:
                queue.append((ref, depth + 1))
    return ordered


def frontier_of(members: list[object]) -> list[tuple[object, object]]:
    """(holder, node) pairs where ``holder`` ∈ members references a node
    outside the member set — the references that must become proxy-outs."""
    member_ids = {id(m) for m in members}
    edges: list[tuple[object, object]] = []
    for holder in members:
        for ref in direct_references(holder):
            target = _through(ref)
            if id(target) not in member_ids:
                edges.append((holder, ref))
    return edges


def _through(node: object) -> object:
    """Follow a resolved proxy-out to its target replica."""
    if isinstance(node, ProxyOutBase) and node._obi_resolved is not None:
        return node._obi_resolved
    return node


def replace_references(holder: object, replacements: dict[int, object]) -> int:
    """Rewrite ``holder``'s state replacing nodes by identity.

    ``replacements`` maps ``id(old)`` to the new value.  Returns the
    number of positions rewritten.  This is the paper's
    ``updateMember(replica, member)`` generalized to containers: after it
    runs, "further invocations from A' on B' will be normal direct
    invocations with no indirection at all".
    """
    count = 0
    state = vars(holder)
    for key, value in list(state.items()):
        new_value, hits = _rebuild(value, replacements)
        if hits:
            state[key] = new_value
            count += hits
    return count


def _rebuild(value: object, replacements: dict[int, object]) -> tuple[object, int]:
    swap = replacements.get(id(value))
    if swap is not None:
        return swap, 1
    if isinstance(value, list):
        hits = 0
        for index, item in enumerate(value):
            new_item, item_hits = _rebuild(item, replacements)
            if item_hits:
                value[index] = new_item
                hits += item_hits
        return value, hits
    if isinstance(value, tuple):
        rebuilt = []
        hits = 0
        for item in value:
            new_item, item_hits = _rebuild(item, replacements)
            rebuilt.append(new_item)
            hits += item_hits
        return (tuple(rebuilt) if hits else value), hits
    if isinstance(value, dict):
        hits = 0
        updates: list[tuple[object, object, object]] = []
        for key, item in value.items():
            new_key, key_hits = _rebuild(key, replacements)
            new_item, item_hits = _rebuild(item, replacements)
            if key_hits or item_hits:
                updates.append((key, new_key, new_item))
                hits += key_hits + item_hits
        for old_key, new_key, new_item in updates:
            if new_key is not old_key:
                del value[old_key]
            value[new_key] = new_item
        return value, hits
    if isinstance(value, set | frozenset):
        hits = 0
        rebuilt_items = []
        for item in value:
            new_item, item_hits = _rebuild(item, replacements)
            rebuilt_items.append(new_item)
            hits += item_hits
        if not hits:
            return value, 0
        if isinstance(value, set):
            value.clear()
            value.update(rebuilt_items)
            return value, hits
        return frozenset(rebuilt_items), hits
    return value, 0
