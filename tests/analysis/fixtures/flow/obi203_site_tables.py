"""Seeded defect: a Site-shaped table store writing outside its lock (OBI203).

One reentrant ``StripeLock`` guards flat ``_masters``/``_replicas``
tables, and single-key lookups are declared ``@snapshot_read``, as in
``repro.core.runtime.Site``.  ``adopt_master`` inserts into ``_masters``
without the lock, racing every locked writer; it is the one finding.
``clean_site_tables.py`` is the same class with the write locked.
"""

from repro.core.striping import StripeLock, snapshot_read


class MasterRecord:
    def __init__(self, obj, version=1):
        self.obj = obj
        self.version = version


class Site:
    def __init__(self):
        self._lock = StripeLock()
        self._masters = {}
        self._replicas = {}

    def note_master(self, oid, obj):
        with self._lock:
            if oid not in self._replicas:
                self._masters.setdefault(oid, MasterRecord(obj))

    def drop_master(self, oid):
        with self._lock:
            return self._masters.pop(oid, None) is not None

    def register_replica(self, oid, obj):
        with self._lock:
            self._replicas[oid] = obj

    def evict(self, oid):
        with self._lock:
            self._replicas.pop(oid, None)

    def iter_masters(self):
        with self._lock:
            return iter(list(self._masters.items()))

    def adopt_master(self, oid, obj, version):
        self._masters[oid] = MasterRecord(obj, version)

    @snapshot_read
    def local_object_for(self, oid):
        record = self._masters.get(oid)
        if record is not None:
            return record.obj
        return self._replicas.get(oid)
