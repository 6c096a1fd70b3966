"""Relaxed mobile transactions.

The paper lists "relaxed transactional support" among the
application-specific properties its hooks enable (its follow-up work,
*Loosely-Coupled, Mobile Replication of Objects with Transactions*,
builds exactly this).  A :class:`MobileTransaction` is the optimistic,
disconnection-friendly variant:

* operations run on **local replicas** — fully usable offline;
* every replica touched is snapshotted on first touch, so an abort can
  roll the local state back;
* ``commit`` (online) validates that no master moved past the version
  each replica was based on, then pushes all written replicas in one
  batch; any version mismatch aborts with the conflict list.

This is first-committer-wins certification: no locks are ever held at
the master, matching the paper's weak-connectivity assumptions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.meta import obi_id_of
from repro.serial.decoder import Decoder
from repro.serial.encoder import Encoder
from repro.util.errors import ReplicationError, TransactionAborted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import Site


class TxState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class _Touched:
    replica: object
    version_seen: int
    snapshot: bytes
    written: bool = False


class MobileTransaction:
    """An optimistic transaction over local replicas."""

    def __init__(self, site: "Site"):
        self.site = site
        self.state = TxState.ACTIVE
        self._touched: dict[str, _Touched] = {}

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def read(self, replica: object, method: str, *args: object, **kwargs: object) -> object:
        """A read inside the transaction (tracked for validation)."""
        self._track(replica, written=False)
        return self.site.invoke_local(replica, method, *args, **kwargs)

    def write(self, replica: object, method: str, *args: object, **kwargs: object) -> object:
        """A mutating operation inside the transaction."""
        touched = self._track(replica, written=True)
        touched.written = True
        return self.site.invoke_local(replica, method, *args, **kwargs)

    # ------------------------------------------------------------------
    # outcome
    # ------------------------------------------------------------------
    def commit(self) -> dict[str, int]:
        """Validate against masters and push writes; returns new versions.

        Raises :class:`TransactionAborted` — after rolling local replicas
        back — when any touched object's master version moved past the
        version this transaction was based on (a concurrent committer).
        Two round trips per provider site: one batched version probe for
        everything touched, one put carrying everything written.
        """
        self._require_active()
        records = []
        for oid in self._touched:
            info = self.site.replica_info(oid)
            if info is None or info.provider is None:
                raise ReplicationError(
                    f"transaction touched {oid!r} which has no individual provider"
                )
            records.append(info)
        current = self.site.master_versions(records)
        conflicts = [
            (oid, touched.version_seen, current[oid])
            for oid, touched in self._touched.items()
            if current[oid] != touched.version_seen
        ]
        if conflicts:
            self.rollback()
            raise TransactionAborted(
                f"validation failed for {len(conflicts)} object(s)", conflicts=conflicts
            )

        versions = self.site.put_back_many(
            touched.replica for touched in self._touched.values() if touched.written
        )
        self.state = TxState.COMMITTED
        return versions

    def rollback(self) -> None:
        """Restore every touched replica to its first-touch snapshot."""
        self._require_active()
        for touched in self._touched.values():
            state = Decoder(self.site.registry).decode(touched.snapshot)
            assert isinstance(state, dict)
            replica_vars = vars(touched.replica)
            preserved = {
                key: value for key, value in replica_vars.items() if _is_graph_ref(value)
            }
            replica_vars.clear()
            replica_vars.update(state)
            # Snapshots only capture plain state; graph references (other
            # replicas, proxy-outs) were never mutated by the transaction
            # machinery itself, so restore the originals.
            replica_vars.update(preserved)
        self.state = TxState.ABORTED

    def abort(self) -> None:
        """Alias for :meth:`rollback` (application-initiated)."""
        self.rollback()

    # ------------------------------------------------------------------
    # context-manager sugar: commit on clean exit, roll back on error
    # ------------------------------------------------------------------
    def __enter__(self) -> "MobileTransaction":
        return self

    def __exit__(self, exc_type: type | None, exc: BaseException | None, tb: object) -> bool:
        if self.state is not TxState.ACTIVE:
            return False
        if exc_type is None:
            self.commit()
            return False
        self.rollback()
        return False  # propagate the application's exception

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _track(self, replica: object, *, written: bool) -> _Touched:
        self._require_active()
        oid = obi_id_of(replica)
        touched = self._touched.get(oid)
        if touched is None:
            info = self.site.replica_info(oid)
            if info is None:
                raise ReplicationError(
                    f"transactions operate on replicas; {oid!r} is not one "
                    f"on site {self.site.name!r}"
                )
            touched = _Touched(
                replica=replica,
                version_seen=info.version,
                snapshot=self._snapshot(replica),
                written=written,
            )
            self._touched[oid] = touched
        return touched

    def _snapshot(self, replica: object) -> bytes:
        state = {
            key: value for key, value in vars(replica).items() if not _is_graph_ref(value)
        }
        return Encoder(self.site.registry).encode(state)

    def _require_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TransactionAborted(f"transaction is {self.state.value}, not active")

    @property
    def touched_count(self) -> int:
        return len(self._touched)


def _is_graph_ref(value: object) -> bool:
    """True for values that are (or contain) OBIWAN graph references."""
    from repro.core.graphwalk import _scan

    return next(_scan(value), None) is not None
