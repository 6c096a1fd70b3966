"""obicodec end to end: every site speaks schema frames, nothing to negotiate.

There is no knob, no mode slot and no capability: a provider encodes
every schema class through its compiled codec for every consumer, a put
ships instance frames, and a rejected put is an error, not a retry.
"""

import pytest

from repro import obiwan
from repro.core.interfaces import Incremental, _mode_state
from repro.core.meta import obi_id_of
from tests.models import Box, Counter


@pytest.fixture
def csites(zero_world):
    """(provider, consumer), as shipped."""
    return zero_world.create_site("S2"), zero_world.create_site("S1")


@obiwan.compile
class Sealed:
    """No schema: custom ``__getstate__`` keeps it on the generic path."""

    def __init__(self, value=None):
        self.value = value

    def __getstate__(self):
        return {"value": self.value, "_obi_id": vars(self).get("_obi_id")}

    def __setstate__(self, state):
        vars(self).update({k: v for k, v in state.items() if v is not None})

    def peek(self):
        return self.value


def _messages(world) -> int:
    stats = world.network.stats
    return stats.link("S1", "S2").messages + stats.link("S2", "S1").messages


def _serial(site) -> dict:
    return site.serial_stats.snapshot()


# ----------------------------------------------------------------------
# mode wire format
# ----------------------------------------------------------------------
class TestModeWire:
    def test_default_mode_stays_a_3_tuple(self):
        assert _mode_state(Incremental(1)) == (1, 0, False)


# ----------------------------------------------------------------------
# get / replicate / refresh
# ----------------------------------------------------------------------
class TestGetDirection:
    def test_replicate_uses_fast_path_when_both_opt_in(self, csites):
        provider, consumer = csites
        provider.export(Counter(41), name="counter")
        replica = consumer.replicate("counter")
        assert replica.read() == 41
        assert _serial(provider)["encodes_fast"] >= 1
        assert _serial(consumer)["decodes_fast"] >= 1

    def test_replica_state_matches_reflective_replica(self, csites):
        """A replica rebuilt from a schema frame carries what one rebuilt
        from a generic frame of the same state would: the master's dict,
        key order included."""
        provider, consumer = csites
        master = Counter(7)
        provider.export(master, name="counter")
        via_schema = consumer.replicate("counter")
        assert vars(via_schema) == vars(master)
        assert list(vars(via_schema)) == list(vars(master))

    def test_any_slot_class_rides_the_fast_path(self, csites):
        provider, consumer = csites
        provider.export(Box({"k": [1, None]}), name="box")
        before = _serial(provider)
        replica = consumer.replicate("box")
        assert replica.get() == {"k": [1, None]}
        assert _serial(provider)["encodes_fast"] > before["encodes_fast"]
        assert _serial(provider)["encodes_reflective"] == before["encodes_reflective"]

    def test_non_schema_class_falls_back_per_object(self, csites):
        provider, consumer = csites
        provider.export(Sealed(Counter(3)), name="sealed")
        before = _serial(provider)
        replica = consumer.replicate("sealed", mode=obiwan.Transitive())
        assert replica.peek().read() == 3
        after = _serial(provider)
        assert after["encodes_reflective"] == before["encodes_reflective"] + 1  # Sealed
        assert after["encodes_fast"] > before["encodes_fast"]  # Counter, the envelope

    def test_refresh_rides_the_fast_path(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        master.value = 5
        provider.touch(master)
        before = _serial(consumer)["decodes_fast"]
        consumer.refresh(replica)
        assert replica.read() == 5
        assert _serial(consumer)["decodes_fast"] > before


# ----------------------------------------------------------------------
# put direction
# ----------------------------------------------------------------------
class TestPutDirection:
    def test_put_back_ships_a_compiled_entry(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        replica.increment(9)
        before = _serial(consumer)["encodes_fast"]
        consumer.put_back(replica)
        assert master.read() == 10
        assert _serial(consumer)["encodes_fast"] > before
        assert _serial(provider)["decodes_fast"] >= 1

    def test_put_back_preserves_master_identity(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        oid = obi_id_of(master)
        replica = consumer.replicate("counter")
        replica.increment()
        consumer.put_back(replica)
        assert obi_id_of(master) == oid

    def test_drifted_replica_falls_back_reflectively(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")
        replica.value = "stringly"  # schema drift: the entry is a generic frame
        before = _serial(consumer)["encodes_reflective"]
        consumer.put_back(replica)
        assert master.value == "stringly"
        assert _serial(consumer)["encodes_reflective"] == before + 1


# ----------------------------------------------------------------------
# a rejected put
# ----------------------------------------------------------------------
class TestPreCodecPeerInterop:
    def test_unrelated_remote_errors_still_propagate(self, csites):
        provider, consumer = csites
        master = Counter(1)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")

        oid = obi_id_of(master)
        table = provider.endpoint.objects
        inner = table.get(oid)

        class BrokenPut:
            def __getattr__(self, name):
                return getattr(inner, name)

            def put(self, package):
                raise RuntimeError("disk on fire")

        table._objects[oid] = BrokenPut()
        replica.increment()
        before = _messages(consumer.world)
        with pytest.raises(Exception, match="disk on fire"):
            consumer.put_back(replica)
        # One request, one reply: no probe, no second frame.
        assert _messages(consumer.world) == before + 2


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestCodecTelemetry:
    def test_snapshot_carries_serial_counters(self, csites):
        from repro.core.telemetry import snapshot

        provider, consumer = csites
        provider.export(Counter(1), name="counter")
        consumer.replicate("counter")
        shot = snapshot(provider)
        assert shot.serial_fast_encodes >= 1
        assert "serial" in shot.render()
