"""The feed scenarios again, on the reactor transport.

Loopback completes a push before ``invoke_async`` returns; the reactor
pipelines every push, so fan-out, stalls and failover take a different
path there.  Each class below re-runs a loopback suite unchanged, with
``feed_world`` overridden to a reactor world.  ``TestOneBatchPerPut`` is
left out: it counts messages, and the reactor accounts a pipelined
push's request frame only.
"""

import pytest

from repro.core.runtime import World
from tests.feed import test_feed_failover as failover
from tests.feed import test_feed_roles as roles


@pytest.fixture
def feed_world():
    with World.reactor() as world:
        yield world


class TestSubscribe(roles.TestSubscribe):
    pass


class TestPush(roles.TestPush):
    pass


class TestCatchUpAndBootstrap(roles.TestCatchUpAndBootstrap):
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
