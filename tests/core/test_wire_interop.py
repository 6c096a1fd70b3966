"""Frame-level guarantees of the one codec.

Every replica payload crossing a proxy-in — a ``get``/``demand`` reply,
each entry of a ``put``'s one frame — is an ``OBJECT_SCHEMA`` (0x10)
instance frame, for every pair of sites, with nothing negotiated first;
and a put the provider rejects is sent exactly once.  These tests watch
the actual payload bytes crossing each proxy-in to prove it.
"""

import pytest

from repro.core.meta import obi_id_of
from repro.serial import tags
from repro.util.errors import SerializationError
from tests.models import Counter


def _proxy_in(provider, master):
    oid = obi_id_of(master)
    ref = provider._provider_refs[oid]
    return provider.endpoint.objects, ref.object_id


class RecordingProxyIn:
    """Wraps a proxy-in, recording the first byte of every payload that
    crosses it in either direction."""

    def __init__(self, inner, *, reject_codec=False):
        self._inner = inner
        self._reject_codec = reject_codec
        self.sent_tags: list[int] = []
        self.received_tags: list[int] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def get(self, mode=None):
        package = self._inner.get(mode)
        if package.payload:
            self.sent_tags.append(package.payload[0])
        return package

    def demand(self, mode=None):
        package = self._inner.demand(mode)
        if package.payload:
            self.sent_tags.append(package.payload[0])
        return package

    def put(self, package):
        # One frame: LIST <u32 count>, then each entry's instance frame;
        # these tests put one entry at a time, so its frame starts at 5.
        assert package.payload[0] == tags.LIST and len(package.entries) == 1
        self.received_tags.append(package.payload[5])
        if self._reject_codec and package.payload[5] == tags.OBJECT_SCHEMA:
            raise SerializationError(f"unknown wire tag 0x{tags.OBJECT_SCHEMA:02x}")
        return self._inner.put(package)


class TestGetDirection:
    def test_codec_consumer_does_receive_0x10(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        master = Counter(3)
        provider.export(master, name="counter")
        table, object_id = _proxy_in(provider, master)
        recorder = RecordingProxyIn(table.get(object_id))
        table._objects[object_id] = recorder

        replica = consumer.replicate("counter")
        master.value = 9
        provider.touch(master)
        consumer.refresh(replica)

        assert replica.read() == 9
        assert recorder.sent_tags == [tags.OBJECT_SCHEMA, tags.OBJECT_SCHEMA]


class TestPutDirection:
    def test_downgraded_provider_sees_0x10_exactly_once(self, zero_world):
        """A provider that rejects a put sees that one frame and no other:
        nothing is cached, nothing is retried in another encoding."""
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        master = Counter(0)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")

        table, object_id = _proxy_in(provider, master)
        recorder = RecordingProxyIn(table.get(object_id), reject_codec=True)
        table._objects[object_id] = recorder

        replica.increment()
        with pytest.raises(SerializationError, match="unknown wire tag"):
            consumer.put_back(replica)
        assert master.read() == 0
        assert recorder.received_tags == [tags.OBJECT_SCHEMA]

    def test_every_put_entry_is_an_instance_frame(self, zero_world):
        provider = zero_world.create_site("S2")
        consumer = zero_world.create_site("S1")
        master = Counter(0)
        provider.export(master, name="counter")
        replica = consumer.replicate("counter")

        table, object_id = _proxy_in(provider, master)
        recorder = RecordingProxyIn(table.get(object_id))
        table._objects[object_id] = recorder

        for _ in range(3):
            replica.increment()
            consumer.put_back(replica)
        assert master.read() == 3
        assert recorder.received_tags == [tags.OBJECT_SCHEMA] * 3
