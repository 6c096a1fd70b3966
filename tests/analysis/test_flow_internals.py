"""Unit tests for the flow layer's stages: symbols, call graph, lock
analysis.  The rule-level behavior is covered by test_flow_rules /
test_flow_fixtures; these pin the intermediate facts the rules consume.
"""

from __future__ import annotations


def _func(project, qualname):
    for func in project.symtab.functions:
        if func.qualname == qualname:
            return func
    raise AssertionError(f"no function {qualname!r} in project")


class TestSymbols:
    def test_lock_attrs_from_init_and_dataclass_field(self, flow_project):
        project = flow_project(
            mod="""
            import threading
            from dataclasses import dataclass, field

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._table = {}

            @dataclass
            class Stats:
                _lock: threading.Lock = field(default_factory=threading.Lock)
                count: int = 0
            """
        )
        (plain,) = project.symtab.class_named("Plain")
        (stats,) = project.symtab.class_named("Stats")
        assert plain.lock_attrs == {"_lock"}
        assert stats.lock_attrs == {"_lock"}

    def test_attr_types_from_annotated_param_and_constructor(self, flow_project):
        project = flow_project(
            mod="""
            class Endpoint:
                def invoke(self):
                    pass

            class Site:
                def __init__(self, endpoint: Endpoint):
                    self.endpoint = endpoint
                    self.backup = Endpoint()
            """
        )
        (site,) = project.symtab.class_named("Site")
        assert site.attr_types["endpoint"] == "Endpoint"
        assert site.attr_types["backup"] == "Endpoint"

    def test_string_annotation_resolves(self, flow_project):
        project = flow_project(
            mod="""
            class Site:
                pass

            def handle(site: "Site"):
                site.spin()
            """
        )
        (site,) = project.symtab.class_named("Site")
        assert site.name == "Site"

    def test_snapshot_read_flag_set(self, flow_project):
        project = flow_project(
            mod="""
            def snapshot_read(func):
                return func

            class Table:
                @snapshot_read
                def peek(self):
                    pass

                def poke(self):
                    pass
            """
        )
        assert _func(project, "Table.peek").snapshot_read
        assert not _func(project, "Table.poke").snapshot_read

    def test_stripe_lock_attr_is_a_lock(self, flow_project):
        """The runtime's table lock is a ``StripeLock``, so the guarded-state
        analysis (OBI203) must see it as one."""
        project = flow_project(
            mod="""
            from repro.core.striping import StripeLock

            class Site:
                def __init__(self):
                    self._lock = StripeLock()
                    self._masters = {}
            """
        )
        (cls,) = project.symtab.class_named("Site")
        assert cls.lock_attrs == {"_lock"}


class TestCallGraph:
    def test_self_method_and_module_function_resolve(self, flow_project):
        project = flow_project(
            mod="""
            def helper():
                pass

            class Worker:
                def run(self):
                    self.step()
                    helper()

                def step(self):
                    pass
            """
        )
        run = _func(project, "Worker.run")
        callees = {
            callee.qualname
            for site in project.graph.sites_of(run)
            for callee in site.callees
        }
        assert callees == {"Worker.step", "helper"}

    def test_typed_attribute_dispatch(self, flow_project):
        project = flow_project(
            mod="""
            class Endpoint:
                def invoke(self, ref):
                    pass

            class Site:
                def __init__(self, endpoint: Endpoint):
                    self.endpoint = endpoint

                def fetch(self, ref):
                    return self.endpoint.invoke(ref)
            """
        )
        fetch = _func(project, "Site.fetch")
        callees = {
            callee.qualname
            for site in project.graph.sites_of(fetch)
            for callee in site.callees
        }
        assert "Endpoint.invoke" in callees

    def test_cross_module_import_resolves(self, flow_project):
        project = flow_project(
            faults="""
            def resolve_fault(site, proxy):
                pass
            """,
            runtime="""
            from faults import resolve_fault

            def handle(site, proxy):
                return resolve_fault(site, proxy)
            """,
        )
        handle = _func(project, "handle")
        callees = {
            callee.qualname
            for site in project.graph.sites_of(handle)
            for callee in site.callees
        }
        assert "resolve_fault" in callees

    def test_ambiguous_names_do_not_resolve(self, flow_project):
        project = flow_project(
            mod="""
            class Store:
                def get(self, key):
                    return key

            def use(thing):
                return thing.get("x")
            """
        )
        use = _func(project, "use")
        assert project.graph.sites_of(use) == []

    def test_same_named_methods_on_two_classes_do_not_merge(self, flow_project):
        """Unique-name dispatch is per owning class: a method name shared
        by two classes proves nothing about an unknown receiver, and
        resolving to both would fuse lock contexts that never meet."""
        project = flow_project(
            alpha="""
            class Master:
                def refresh(self):
                    pass
            """,
            beta="""
            class Replica:
                def refresh(self):
                    pass

            def poke(thing):
                thing.refresh()
            """,
        )
        poke = _func(project, "poke")
        assert project.graph.sites_of(poke) == []

    def test_unique_method_on_one_class_still_resolves(self, flow_project):
        project = flow_project(
            mod="""
            class Master:
                def refresh_epoch(self):
                    pass

            def poke(thing):
                thing.refresh_epoch()
            """
        )
        poke = _func(project, "poke")
        callees = {
            callee.qualname
            for site in project.graph.sites_of(poke)
            for callee in site.callees
        }
        assert callees == {"Master.refresh_epoch"}


class TestLockAnalysis:
    def test_held_sets_in_summaries(self, flow_project):
        project = flow_project(
            mod="""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def put_item(self, item):
                    with self._lock:
                        self._items.append(item)
                    self._items.reverse()
            """
        )
        put_item = _func(project, "Box.put_item")
        summary = project.locks.summaries[put_item.key]
        writes = [a for a in summary.accesses if a.kind == "write"]
        assert any(a.held == ("Box._lock",) for a in writes)
        assert any(a.held == () for a in writes)

    def test_must_entry_held_for_private_helper(self, flow_project):
        project = flow_project(
            mod="""
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}

                def insert(self, key, row):
                    with self._lock:
                        self._store(key, row)

                def replace(self, key, row):
                    with self._lock:
                        self._store(key, row)

                def _store(self, key, row):
                    self._rows[key] = row
            """
        )
        store = _func(project, "Table._store")
        insert = _func(project, "Table.insert")
        assert project.locks.must_entry_held[store.key] == {"Table._lock"}
        assert project.locks.must_entry_held[insert.key] == frozenset()

    def test_public_helper_gets_no_must_context(self, flow_project):
        project = flow_project(
            mod="""
            import threading

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._rows = {}

                def insert(self, key, row):
                    with self._lock:
                        self.store(key, row)

                def store(self, key, row):
                    self._rows[key] = row
            """
        )
        store = _func(project, "Table.store")
        assert project.locks.must_entry_held[store.key] == frozenset()

    def test_guarded_fields_inferred(self, flow_project):
        project = flow_project(
            mod="""
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def store(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def drop(self, key):
                    self._entries.pop(key, None)
            """
        )
        (field,) = project.guarded.fields
        assert (field.cls.name, field.attr, field.lock) == (
            "Cache",
            "_entries",
            "Cache._lock",
        )
        kinds = {(v.func.qualname, v.kind) for v in project.guarded.violations}
        assert ("Cache.drop", "write") in kinds
