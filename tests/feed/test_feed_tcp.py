"""The feed scenarios again, on the TCP transport.

Loopback delivers every push in-process on the simulated clock; on TCP
each push crosses a pooled socket to a serving thread, so fan-out,
stalls and failover run under real concurrency.  Each class below
re-runs a loopback suite unchanged, with ``feed_world`` overridden to a
TCP world.
"""

import pytest

from repro.core.runtime import World
from tests.feed import test_feed_failover as failover
from tests.feed import test_feed_roles as roles


@pytest.fixture
def feed_world():
    with World.tcp() as world:
        yield world


class TestSubscribe(roles.TestSubscribe):
    pass


class TestPush(roles.TestPush):
    pass


class TestOneBatchPerPut(roles.TestOneBatchPerPut):
    pass


class TestJoin(roles.TestJoin):
    pass


class TestPushOrder(roles.TestPushOrder):
    pass


class TestWriteThrough(roles.TestWriteThrough):
    pass


class TestElection(failover.TestElection):
    pass


class TestPromotion(failover.TestPromotion):
    pass


class TestEpochFencing(failover.TestEpochFencing):
    pass


class TestPartitionConvergence(failover.TestPartitionConvergence):
    pass
