"""obiwire: extraction, spec canonicalization, diff, and CLI (PR 8).

The extraction tests run against the real tree, so they double as the
contract's regression net: if a refactor moves a registration or changes
a class's one wire shape, the extracted spec changes here first.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.engine import load_modules
from repro.analysis.wire.cli import main as obiwire_main
from repro.analysis.wire.diff import diff_specs, has_breaking
from repro.analysis.wire.extract import extract_modules
from repro.analysis.wire.spec import WireClass, WireField, WireSpec

REPO = Path(__file__).parents[2]
SRC = REPO / "src" / "repro"


@pytest.fixture(scope="module")
def tree_spec() -> WireSpec:
    modules, failures = load_modules([SRC])
    assert failures == []
    return extract_modules(modules)


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
            "core.ReplicaPackage",
            "core.PutEntry",
            "core.PutPackage",
            "core.ReplicationMode",
            "core.Interface",
            "rmi.InvokeRequest",
            "rmi.InvokeSuccess",
            "rmi.InvokeFailure",
            "rmi.RemoteRef",
            "consistency.VersionVector",
        }
        assert expected <= set(tree_spec.classes)
        # A package maps oid → version: no per-member metadata class.
        assert "core.ObjectMeta" not in tree_spec.classes

    def test_put_entry_field_order(self, tree_spec):
        entry = tree_spec.classes["core.PutEntry"]
        assert [f.name for f in entry.fields] == ["obi_id", "version_seen"]
        assert entry.state == "struct"  # the declared fields are the frame

    def test_replication_mode_is_a_fixed_three_tuple(self, tree_spec):
        # The mode travels as one fixed shape.
        mode = tree_spec.classes["core.ReplicationMode"]
        assert mode.custom_state and mode.state == "tuple"
        assert [f.name for f in mode.fields] == ["chunk", "depth", "clustered"]

    def test_replica_package_carries_no_mode(self, tree_spec):
        package = tree_spec.classes["core.ReplicaPackage"]
        assert [f.name for f in package.fields] == [
            "root_id", "payload", "meta", "pairs_created",
        ]

    def test_invoke_request_is_a_declared_struct(self, tree_spec):
        request = tree_spec.classes["rmi.InvokeRequest"]
        assert request.state == "struct"
        assert [f.name for f in request.fields] == [
            "object_id", "method", "args", "kwargs", "trace",
        ]

    def test_every_protocol_frame_is_a_struct(self, tree_spec):
        for name, cls in tree_spec.classes.items():
            if name.startswith(("rmi.", "feed.")) or name in (
                "core.ReplicaPackage", "core.PutEntry", "core.PutPackage",
            ):
                assert cls.state == "struct" and not cls.custom_state, name

    def test_passthrough_classes(self, tree_spec):
        assert tree_spec.classes["consistency.VersionVector"].state == "passthrough"

    def test_core_verbs_extracted(self, tree_spec):
        assert {"get", "put", "demand", "get_version"} <= tree_spec.verbs

    def test_feed_verbs_extracted_flat(self, tree_spec):
        # Feed verbs sit in the same flat set as the core ones: no fallback
        # edges, and a join is one feed_subscribe (no second verb).
        assert {"feed_subscribe", "feed_events", "promote"} <= tree_spec.verbs
        assert "feed_snapshot" not in tree_spec.verbs
        assert not any(name.startswith("feed.FeedSnapshot") for name in tree_spec.classes)
        assert json.loads(tree_spec.to_json())["verbs"] == sorted(tree_spec.verbs)

    def test_extraction_is_deterministic(self, tree_spec):
        again = extract_modules(load_modules([SRC])[0])
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

    def test_any_appended_field_is_breaking(self):
        # One shape per class: there is no optional tail to append to.
        appended = _spec(
            classes={
                "core.Thing": WireClass(
                    cls="Thing",
                    module="core/thing.py",
                    state="tuple",
                    fields=(WireField("a"), WireField("b"), WireField("c")),
                )
            }
        )
        changes = diff_specs(_spec(), appended)
        assert [(c.kind, c.category, c.entity) for c in changes] == [
            ("breaking", "field-added", "core.Thing.c")
        ]

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
        assert obiwire_main(["spec", str(SRC), "--out", str(out)]) == 0
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
