"""The batched reconcile pass again, on the TCP transport.

Loopback delivers the version probe and the put in-process on the
simulated clock; on TCP each crosses a pooled socket to a serving
thread, the transport obibench measures.  The class below re-runs the
loopback suite unchanged, with ``new_world`` overridden to a TCP world.
"""

import pytest

from repro.core.runtime import World
from tests.mobility import test_reconcile as reconcile


@pytest.fixture
def new_world():
    return World.tcp


class TestBatchedPass(reconcile.TestBatchedPass):
    pass
