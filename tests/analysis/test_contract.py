"""The contract must stay consistent with the live runtime.

These tests are the drift alarms: if someone renames a proxy-in control
method, adds a wire tag, or reshuffles the error hierarchy, the analyzer
contract fails here instead of silently rotting.
"""

from repro.analysis import contract
from repro.core.proxy_in import PROXY_IN_CONTROL_METHODS
from repro.serial import tags
from repro.util.errors import ObiwanError, ReplicationError, TransportError


class TestReservedNames:
    def test_derived_from_proxy_in(self):
        # Every control method the proxy-in actually exposes is reserved.
        assert set(PROXY_IN_CONTROL_METHODS) <= contract.RESERVED_CONTROL_METHODS

    def test_paper_verbs_reserved(self):
        assert "updateMember" in contract.RESERVED_CONTROL_METHODS
        assert "get" in contract.RESERVED_CONTROL_METHODS
        assert "put" in contract.RESERVED_CONTROL_METHODS
        assert "demand" in contract.RESERVED_CONTROL_METHODS


class TestWireCrossCheck:
    def test_builtins_match_tag_table(self):
        # One encodable builtin per value tag (tags also cover the
        # structural OBJECT/REF/SWIZZLED envelopes and bool's two tags).
        tag_names = {
            name for name in vars(tags) if not name.startswith("_")
        }
        assert {"NONE", "INT", "FLOAT", "STR", "BYTES", "BYTEARRAY", "LIST",
                "TUPLE", "DICT", "SET", "FROZENSET", "OBJECT_SCHEMA"} <= tag_names
        assert {list, dict, set, frozenset, bytes, bytearray} <= contract.WIRE_ENCODABLE_BUILTINS

    def test_tag_bytes_are_unique(self):
        values = [
            value for name, value in vars(tags).items()
            if not name.startswith("_") and isinstance(value, int)
        ]
        assert len(values) == len(set(values))

    def test_schema_codec_names_track_the_codec_cache(self):
        from repro.serial.compiled import codec_for
        from repro.serial.registry import TypeRegistry

        class Probe:
            def __init__(self, n: int):
                self.n = n

        TypeRegistry().register(Probe, name="contract.Probe")
        assert codec_for(Probe) is not None
        names = contract.schema_codec_names()
        assert "contract.Probe" in names
        # Every advertised codec corresponds to a class that compiled one.
        from repro.serial.compiled import registered_codec_names

        assert names == registered_codec_names()


class TestErrorHierarchy:
    def test_replication_errors_discovered(self):
        assert "ReplicationError" in contract.REPLICATION_ERROR_NAMES
        assert "TransportError" in contract.REPLICATION_ERROR_NAMES
        assert issubclass(ReplicationError, ObiwanError)
        assert issubclass(TransportError, ObiwanError)

    def test_foreign_errors_not_included(self):
        assert "ValueError" not in contract.REPLICATION_ERROR_NAMES
        assert "KeyError" not in contract.REPLICATION_ERROR_NAMES
