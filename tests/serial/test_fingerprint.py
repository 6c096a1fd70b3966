"""Deterministic state fingerprints."""

import pytest

from repro.core.meta import obi_id_of
from repro.serial.fingerprint import Fingerprinter
from repro.serial.registry import global_registry
from tests.models import Box


class TestFingerprinter:
    @pytest.fixture
    def fp(self):
        return Fingerprinter(global_registry)

    def test_deterministic_and_order_independent(self, fp):
        assert fp.of_state({"a": 1, "b": 2}) == fp.of_state({"b": 2, "a": 1})

    def test_value_change_changes_digest(self, fp):
        assert fp.of_state({"a": 1}) != fp.of_state({"a": 2})
        assert fp.of_state({"a": 1}) != fp.of_state({"b": 1})

    def test_obiwan_references_hash_as_identity(self, fp):
        inner = Box(1)
        digest = fp.of_state({"ref": inner})
        inner.value = 999  # the referent's own state is not part of the digest
        assert fp.of_state({"ref": inner}) == digest
        assert fp.of_state({"ref": Box(1)}) != digest  # different identity

    def test_of_object_matches_of_state_on_vars(self, fp):
        box = Box(5)
        obi_id_of(box)  # materialize the identity field
        assert fp.of_object(box) == fp.of_state(vars(box))

    def test_of_value_detects_container_mutation(self, fp):
        items = [1, 2]
        baseline = fp.of_value(items)
        items.append(3)
        assert fp.of_value(items) != baseline
