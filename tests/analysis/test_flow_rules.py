"""Positive and negative cases for the flow rules OBI202–OBI205 and OBI209."""

from __future__ import annotations


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestOBI202BlockingUnderLock:
    def test_blocking_callee_flagged(self, lint):
        findings = lint(
            """
            import threading

            class Flusher:
                def __init__(self, sock):
                    self._lock = threading.Lock()
                    self._sock = sock

                def flush(self, data):
                    with self._lock:
                        self._push(data)

                def _push(self, data):
                    self._sock.sendall(data)
            """,
            rule="OBI202",
        )
        assert rules_of(findings) == {"OBI202"}
        assert "sendall" in findings[0].message

    def test_send_after_lock_released_clean(self, lint):
        findings = lint(
            """
            import threading

            class Flusher:
                def __init__(self, sock):
                    self._lock = threading.Lock()
                    self._sock = sock
                    self._dirty = []

                def flush(self):
                    with self._lock:
                        batch = list(self._dirty)
                    for data in batch:
                        self._push(data)

                def _push(self, data):
                    self._sock.sendall(data)
            """,
            rule="OBI202",
        )
        assert findings == []


class TestOBI203UnguardedState:
    def test_unlocked_write_and_read_flagged(self, lint):
        findings = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def store(self, key, value):
                    with self._lock:
                        self._entries[key] = value

                def evict(self, key):
                    self._entries.pop(key, None)

                def lookup(self, key):
                    return self._entries.get(key)
            """,
            rule="OBI203",
        )
        assert rules_of(findings) == {"OBI203"}
        assert len(findings) == 2

    def test_private_helper_under_lock_clean(self, lint):
        findings = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def store(self, key, value):
                    with self._lock:
                        self._store(key, value)

                def _store(self, key, value):
                    self._entries[key] = value
            """,
            rule="OBI203",
        )
        assert findings == []

    def test_init_writes_exempt(self, lint):
        findings = lint(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}
                    self._entries["warm"] = True

                def store(self, key, value):
                    with self._lock:
                        self._entries[key] = value
            """,
            rule="OBI203",
        )
        assert findings == []

    def test_lone_locked_write_among_many_unlocked_clean(self, lint):
        """When most writers skip the lock, the lock is the anomaly —
        don't flag the majority."""
        findings = lint(
            """
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    self.count += 1

                def bump_again(self):
                    self.count += 1

                def rare(self):
                    with self._lock:
                        self.count += 1
            """,
            rule="OBI203",
        )
        assert findings == []


class TestOBI204PutWithoutSource:
    def test_blind_put_flagged(self, lint):
        findings = lint(
            """
            class Writer:
                def __init__(self, endpoint, provider):
                    self.endpoint = endpoint
                    self.provider = provider

                def push(self, package):
                    return self.endpoint.invoke(self.provider, "put", (package,))
            """,
            rule="OBI204",
        )
        assert rules_of(findings) == {"OBI204"}

    def test_put_with_get_elsewhere_in_class_clean(self, lint):
        findings = lint(
            """
            class Consumer:
                def __init__(self, endpoint, provider):
                    self.endpoint = endpoint
                    self.provider = provider

                def replicate(self, mode):
                    return self.endpoint.invoke(self.provider, "get", (mode,))

                def put_back(self, package):
                    return self.endpoint.invoke(self.provider, "put", (package,))
            """,
            rule="OBI204",
        )
        assert findings == []

    def test_source_through_called_helper_clean(self, lint):
        findings = lint(
            """
            class Consumer:
                def __init__(self, endpoint, provider):
                    self.endpoint = endpoint
                    self.provider = provider

                def _fetch(self, mode):
                    return self.endpoint.invoke(self.provider, "get", (mode,))

                def put_back(self, package):
                    return self.endpoint.invoke(self.provider, "put", (package,))
            """,
            rule="OBI204",
        )
        assert findings == []

    def test_string_constants_not_confused_with_verbs(self, lint):
        """acl-style policy tables mention "put" without invoking it."""
        findings = lint(
            """
            class Policy:
                def __init__(self):
                    self.rules = []

                def allow(self, pattern, verb):
                    self.rules.append((pattern, verb))

            def harden(policy):
                policy.allow("*", "put")
            """,
            rule="OBI204",
        )
        assert findings == []


class TestOBI205DemandOutsideFaultPath:
    def test_demand_elsewhere_flagged(self, lint):
        findings = lint(
            """
            def eager(site, proxy):
                return site.endpoint.invoke(proxy.provider, "demand", (proxy.mode,))
            """,
            rule="OBI205",
        )
        assert rules_of(findings) == {"OBI205"}

    def test_other_verbs_clean(self, lint):
        findings = lint(
            """
            def fetch(site, ref, mode):
                return site.endpoint.invoke(ref, "get", (mode,))
            """,
            rule="OBI205",
        )
        assert findings == []


class TestOBI209SnapshotReadMutation:
    def test_reachable_write_flagged(self, lint):
        findings = lint(
            """
            import threading

            def snapshot_read(func):
                return func

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def _bump(self, oid):
                    with self._lock:
                        self._entries[oid] = 1

                @snapshot_read
                def observe(self, oid):
                    self._bump(oid)
                    return self._entries.get(oid)
            """,
            rule="OBI209",
        )
        assert rules_of(findings) == {"OBI209"}
        assert "snapshot read" in findings[0].message

    def test_direct_write_flagged(self, lint):
        findings = lint(
            """
            import threading

            def snapshot_read(func):
                return func

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def store(self, oid):
                    with self._lock:
                        self._entries[oid] = 1

                @snapshot_read
                def observe(self, oid):
                    self._entries[oid] = 1
                    return self._entries.get(oid)
            """,
            rule="OBI209",
        )
        assert rules_of(findings) == {"OBI209"}

    def test_read_only_path_clean(self, lint):
        findings = lint(
            """
            import threading

            def snapshot_read(func):
                return func

            class Table:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def store(self, oid):
                    with self._lock:
                        self._entries[oid] = 1

                def _lookup(self, oid):
                    return self._entries.get(oid)

                @snapshot_read
                def observe(self, oid):
                    return self._lookup(oid)
            """,
            rule="OBI209",
        )
        assert findings == []

    def test_writes_to_unguarded_state_clean(self, lint):
        """A snapshot read may touch fields no lock owns (e.g. a plain
        counter) — only lock-guarded state is protected."""
        findings = lint(
            """
            def snapshot_read(func):
                return func

            class Plain:
                def __init__(self):
                    self.peeks = 0
                    self.value = None

                @snapshot_read
                def observe(self):
                    self.peeks += 1
                    return self.value
            """,
            rule="OBI209",
        )
        assert findings == []
