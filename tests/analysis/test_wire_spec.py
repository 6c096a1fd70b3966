"""obiwire: extraction, spec canonicalization, diff, and CLI (PR 8).

The extraction tests run against the real tree, so they double as the
contract's regression net: if a refactor moves a registration or breaks
the widened-tuple discipline, the extracted spec changes here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.engine import ModuleSource
from repro.analysis.wire.cli import main as obiwire_main
from repro.analysis.wire.diff import diff_specs, has_breaking
from repro.analysis.wire.extract import extract_modules
from repro.analysis.wire.spec import WireClass, WireField, WireSpec

REPO = Path(__file__).parents[2]
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def tree_spec() -> WireSpec:
    from repro.analysis.engine import Analyzer

    files = Analyzer.collect_files([SRC])
    return extract_modules([ModuleSource.parse(path) for path in files])


# ----------------------------------------------------------------------
# extraction over the real tree
# ----------------------------------------------------------------------
class TestExtraction:
    def test_tag_table_complete(self, tree_spec):
        from repro.serial import tags

        expected = {
            name: value
            for name, value in vars(tags).items()
            if name.isupper() and isinstance(value, int)
        }
        assert tree_spec.tags == expected

    def test_every_registered_class_extracted(self, tree_spec):
        # The live registry is the ground truth for what static
        # extraction must have found (dynamic/porting entries excluded —
        # they have no literal wire name to extract).
        expected = {
            "core.ObjectMeta",
            "core.ReplicaPackage",
            "core.PutEntry",
            "core.PutPackage",
            "core.ReplicationMode",
            "core.Interface",
            "rmi.InvokeRequest",
            "rmi.InvokeSuccess",
            "rmi.InvokeFailure",
            "rmi.InvokeBatchRequest",
            "rmi.InvokeBatchResponse",
            "rmi.RemoteRef",
            "consistency.VersionVector",
        }
        assert expected <= set(tree_spec.classes)

    def test_object_meta_field_order(self, tree_spec):
        meta = tree_spec.classes["core.ObjectMeta"]
        assert [f.name for f in meta.fields] == [
            "obi_id", "interface", "version", "provider", "cluster_root",
        ]
        assert meta.state == "struct"  # the declared fields are the frame
        assert not meta.optional_tail
        assert all(not f.optional for f in meta.fields)

    def test_replication_mode_widened_tail_with_guards(self, tree_spec):
        mode = tree_spec.classes["core.ReplicationMode"]
        assert mode.custom_state and mode.optional_tail
        by_name = {f.name: f for f in mode.fields}
        assert [f.name for f in mode.fields] == [
            "chunk", "depth", "clustered", "prefetch",
        ]
        assert not by_name["chunk"].optional
        assert by_name["prefetch"].optional and by_name["prefetch"].guard == "prefetch"

    def test_invoke_request_is_a_declared_struct(self, tree_spec):
        request = tree_spec.classes["rmi.InvokeRequest"]
        assert request.state == "struct" and not request.optional_tail
        assert [f.name for f in request.fields] == [
            "object_id", "method", "args", "kwargs", "trace",
        ]
        assert not any(f.optional for f in request.fields)

    def test_every_protocol_frame_is_a_struct(self, tree_spec):
        for name, cls in tree_spec.classes.items():
            if name.startswith(("rmi.", "feed.")) or name in (
                "core.ObjectMeta", "core.ReplicaPackage", "core.PutEntry", "core.PutPackage",
            ):
                assert cls.state == "struct" and not cls.custom_state, name

    def test_passthrough_classes(self, tree_spec):
        assert tree_spec.classes["consistency.VersionVector"].state == "passthrough"

    def test_core_verbs_extracted(self, tree_spec):
        assert {"get", "put", "demand", "get_version"} <= tree_spec.verbs

    def test_feed_verbs_extracted_flat(self, tree_spec):
        # Feed verbs sit in the same flat set as the core ones: no fallback edges.
        assert {
            "feed_subscribe", "feed_events", "feed_snapshot", "promote",
        } <= tree_spec.verbs
        assert json.loads(tree_spec.to_json())["verbs"] == sorted(tree_spec.verbs)

    def test_extraction_is_deterministic(self, tree_spec):
        from repro.analysis.engine import Analyzer

        files = Analyzer.collect_files([SRC])
        again = extract_modules([ModuleSource.parse(path) for path in files])
        assert again.to_json() == tree_spec.to_json()
        assert again.fingerprint() == tree_spec.fingerprint()

    def test_committed_baseline_matches_the_tree(self, tree_spec):
        committed = WireSpec.load(REPO / ".github" / "wire-baseline.json")
        assert committed.fingerprint() == tree_spec.fingerprint(), (
            "the wire contract drifted; regenerate with "
            "'python -m repro.analysis.wire check src/repro --update'"
        )

    def test_spec_roundtrips_through_json(self, tree_spec):
        loaded = WireSpec.from_dict(json.loads(tree_spec.to_json()))
        assert loaded.fingerprint() == tree_spec.fingerprint()
        assert loaded.classes == tree_spec.classes


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
def _spec(**overrides) -> WireSpec:
    base = WireSpec(
        tags={"NONE": 0, "INT": 3},
        classes={
            "core.Thing": WireClass(
                cls="Thing",
                module="core/thing.py",
                state="tuple",
                fields=(WireField("a"), WireField("b")),
            )
        },
        verbs=frozenset({"get"}),
    )
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestDiff:
    def test_identical_specs_have_no_changes(self):
        assert diff_specs(_spec(), _spec()) == []

    def test_tag_value_change_is_breaking(self):
        changes = diff_specs(_spec(), _spec(tags={"NONE": 0, "INT": 4}))
        assert has_breaking(changes)
        assert any(c.category == "tag-value-changed" for c in changes)

    def test_new_tag_is_compatible(self):
        changes = diff_specs(_spec(), _spec(tags={"NONE": 0, "INT": 3, "NEW": 17}))
        assert not has_breaking(changes)
        assert any(c.category == "tag-added" for c in changes)

    def test_field_reorder_is_breaking(self):
        reordered = _spec(
            classes={
                "core.Thing": WireClass(
                    cls="Thing",
                    module="core/thing.py",
                    state="tuple",
                    fields=(WireField("b"), WireField("a")),
                )
            }
        )
        changes = diff_specs(_spec(), reordered)
        assert has_breaking(changes)
        assert any(c.category == "field-reordered" for c in changes)

    def test_required_append_breaking_optional_append_compatible(self):
        def with_tail(optional):
            return _spec(
                classes={
                    "core.Thing": WireClass(
                        cls="Thing",
                        module="core/thing.py",
                        state="tuple",
                        optional_tail=optional,
                        fields=(
                            WireField("a"),
                            WireField("b"),
                            WireField("c", optional=optional, guard="c" if optional else None),
                        ),
                    )
                }
            )

        assert has_breaking(diff_specs(_spec(), with_tail(False)))
        changes = diff_specs(_spec(), with_tail(True))
        assert not has_breaking(changes)
        assert any(c.category == "optional-field-added" for c in changes)

    def test_verb_removal_breaking_addition_compatible(self):
        gone = _spec(verbs=frozenset())
        changes = diff_specs(_spec(), gone)
        assert has_breaking(changes)
        assert [(c.category, c.entity) for c in changes] == [("verb-removed", "get")]
        added = _spec(verbs=frozenset({"get", "get_version"}))
        assert not has_breaking(diff_specs(_spec(), added))

    def test_new_verb_is_a_compatible_addition(self):
        added = _spec(verbs=frozenset({"get", "zap"}))
        changes = diff_specs(_spec(), added)
        assert not has_breaking(changes)
        assert [(c.category, c.entity) for c in changes] == [("verb-added", "zap")]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_spec_writes_fingerprinted_json(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert obiwire_main(["spec", str(SRC), "--out", str(out), "--jobs", "4"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["fingerprint"] == WireSpec.from_dict(payload).fingerprint()
        assert "OBJECT_SCHEMA" in payload["tags"]

    def test_check_matches_committed_baseline(self, capsys):
        code = obiwire_main(
            ["check", str(SRC), "--baseline", str(REPO / ".github" / "wire-baseline.json")]
        )
        assert code == 0
        assert "matches baseline" in capsys.readouterr().out

    def test_check_fails_on_drift_and_update_repairs(self, tmp_path, capsys):
        stale = tmp_path / "wire-baseline.json"
        spec = WireSpec.load(REPO / ".github" / "wire-baseline.json")
        spec.tags["OBJECT_SCHEMA"] = 0x2A
        stale.write_text(spec.to_json(), encoding="utf-8")
        assert obiwire_main(["check", str(SRC), "--baseline", str(stale)]) == 1
        out = capsys.readouterr().out
        assert "drifted" in out and "tag-value-changed" in out
        assert obiwire_main(["check", str(SRC), "--baseline", str(stale), "--update"]) == 0
        assert obiwire_main(["check", str(SRC), "--baseline", str(stale)]) == 0

    def test_check_missing_baseline_is_usage_error(self, tmp_path, capsys):
        code = obiwire_main(
            ["check", str(SRC), "--baseline", str(tmp_path / "none.json")]
        )
        assert code == 2

    def test_diff_exit_codes(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(_spec().to_json(), encoding="utf-8")
        new.write_text(_spec().to_json(), encoding="utf-8")
        assert obiwire_main(["diff", str(old), str(new)]) == 0
        broken = _spec(tags={"NONE": 1, "INT": 3})
        new.write_text(broken.to_json(), encoding="utf-8")
        assert obiwire_main(["diff", str(old), str(new)]) == 1

    def test_diff_json_format(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(_spec().to_json(), encoding="utf-8")
        new.write_text(
            _spec(tags={"NONE": 0, "INT": 3, "NEW": 9}).to_json(), encoding="utf-8"
        )
        assert obiwire_main(["diff", str(old), str(new), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["breaking"] is False
        assert payload["changes"][0]["category"] == "tag-added"

    def test_jobs_parallel_spec_is_identical(self, tmp_path):
        serial, parallel = tmp_path / "serial.json", tmp_path / "parallel.json"
        assert obiwire_main(["spec", str(SRC), "--out", str(serial)]) == 0
        assert obiwire_main(["spec", str(SRC), "--out", str(parallel), "--jobs", "8"]) == 0
        assert serial.read_text() == parallel.read_text()
