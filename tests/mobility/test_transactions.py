"""Tests for relaxed mobile transactions."""

import pytest

from repro.mobility.transactions import MobileTransaction, TxState
from repro.util.errors import ReplicationError, TransactionAborted
from tests.models import Counter


@pytest.fixture
def tx_setup(mobile):
    world, office, node, master = mobile
    replica = node.hoard("counter")
    return world, office, node, master, replica


class TestCommit:
    def test_clean_commit_pushes_writes(self, tx_setup):
        _w, _office, node, master, replica = tx_setup
        tx = node.transaction()
        tx.write(replica, "increment", 5)
        versions = tx.commit()
        assert master.value == 5
        assert tx.state is TxState.COMMITTED
        assert len(versions) == 1

    def test_read_only_transaction_commits_without_puts(self, tx_setup):
        world, _office, node, _master, replica = tx_setup
        tx = node.transaction()
        assert tx.read(replica, "read") == 0
        before = world.network.stats.total_bytes
        versions = tx.commit()
        assert versions == {}
        # Validation costs one small get_version call, not a put.
        assert world.network.stats.total_bytes - before < 600

    def test_offline_work_commits_after_reconnect(self, tx_setup):
        _w, _office, node, master, replica = tx_setup
        node.go_offline()
        tx = node.transaction()
        tx.write(replica, "increment", 7)  # all local
        node.go_online(reconcile=False)
        tx.commit()
        assert master.value == 7

    def test_concurrent_committer_aborts_and_rolls_back(self, tx_setup):
        world, _office, node, master, replica = tx_setup
        tx = node.transaction()
        tx.write(replica, "increment", 100)

        other_site = world.create_site("other")
        other = other_site.replicate("counter")
        other.increment(1)
        other_site.put_back(other)  # bumps the master version

        with pytest.raises(TransactionAborted) as info:
            tx.commit()
        assert tx.state is TxState.ABORTED
        assert len(info.value.conflicts) == 1
        assert replica.read() == 0  # rolled back
        assert master.value == 1  # the other writer's value survives

    def test_commit_costs_two_round_trips_per_provider_site(self, tx_setup):
        world, office, node, _master, _replica = tx_setup
        masters = [Counter(i) for i in range(5)]
        for i, m in enumerate(masters):
            office.export(m, name=f"c{i}")
        replicas = [node.site.replicate(f"c{i}") for i in range(5)]
        tx = node.transaction()
        for replica in replicas[:4]:
            tx.write(replica, "increment", 10)
        tx.read(replicas[4], "read")
        before = world.network.stats.total_messages
        versions = tx.commit()
        # One batched validation probe, one 4-entry put.
        assert world.network.stats.total_messages - before == 4
        assert [m.value for m in masters] == [10, 11, 12, 13, 4]
        assert sorted(versions.values()) == [2, 2, 2, 2]

    def test_abort_names_every_conflict_and_writes_nothing(self, tx_setup):
        world, office, node, _master, _replica = tx_setup
        masters = [Counter(i) for i in range(3)]
        for i, m in enumerate(masters):
            office.export(m, name=f"c{i}")
        replicas = [node.site.replicate(f"c{i}") for i in range(3)]
        tx = node.transaction()
        for replica in replicas:
            tx.write(replica, "increment", 10)
        for m in masters[1:]:
            office.touch(m)  # concurrent committers on two of the three
        with pytest.raises(TransactionAborted) as info:
            tx.commit()
        assert sorted((seen, now) for _oid, seen, now in info.value.conflicts) == [
            (1, 2),
            (1, 2),
        ]
        assert [m.value for m in masters] == [0, 1, 2]
        assert [r.read() for r in replicas] == [0, 1, 2]  # rolled back

    def test_commit_twice_rejected(self, tx_setup):
        _w, _office, node, _master, replica = tx_setup
        tx = node.transaction()
        tx.write(replica, "increment")
        tx.commit()
        with pytest.raises(TransactionAborted):
            tx.commit()


class TestRollback:
    def test_rollback_restores_first_touch_state(self, tx_setup):
        _w, _office, node, _master, replica = tx_setup
        replica.increment(3)  # pre-transaction state: 3
        tx = node.transaction()
        tx.write(replica, "increment", 10)
        tx.write(replica, "increment", 10)
        tx.rollback()
        assert replica.read() == 3
        assert tx.state is TxState.ABORTED

    def test_operations_after_rollback_rejected(self, tx_setup):
        _w, _office, node, _master, replica = tx_setup
        tx = node.transaction()
        tx.rollback()
        with pytest.raises(TransactionAborted):
            tx.write(replica, "increment")


class TestContextManager:
    def test_clean_exit_commits(self, tx_setup):
        _w, _office, node, master, replica = tx_setup
        with node.transaction() as tx:
            tx.write(replica, "increment", 2)
        assert master.value == 2

    def test_exception_rolls_back_and_propagates(self, tx_setup):
        _w, _office, node, master, replica = tx_setup
        with pytest.raises(ValueError):
            with node.transaction() as tx:
                tx.write(replica, "increment", 9)
                raise ValueError("application bug")
        assert replica.read() == 0
        assert master.value == 0


class TestGuards:
    def test_non_replica_rejected(self, tx_setup):
        _w, _office, node, _master, _replica = tx_setup
        tx = node.transaction()
        with pytest.raises(ReplicationError):
            tx.write(Counter(), "increment")

    def test_touched_count(self, tx_setup):
        _w, _office, node, _master, replica = tx_setup
        tx = node.transaction()
        tx.read(replica, "read")
        tx.write(replica, "increment")
        assert tx.touched_count == 1
        tx.commit()
