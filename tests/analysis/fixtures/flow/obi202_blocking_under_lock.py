"""Seeded defect: a helper called under a lock blocks on the network
(OBI202).

``flush`` itself contains no send — the hazard is one call away, in
``_push``, which only the interprocedural pass can see.
"""

import threading


class ReplicaFlusher:
    def __init__(self, sock):
        self._lock = threading.Lock()
        self._sock = sock
        self._dirty = []

    def flush(self):
        with self._lock:
            while self._dirty:
                self._push(self._dirty.pop())

    def _push(self, package):
        self._sock.sendall(package)
