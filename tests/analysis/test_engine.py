"""Engine behavior: suppressions, selection, parse failures, reports."""

import textwrap

from repro.analysis import analyze_paths
from repro.analysis.engine import Analyzer
from repro.analysis.rules import ALL_RULES, build_rules
from repro.analysis.suppressions import parse_suppressions

BAD_CLASS = """
from repro import obiwan

@obiwan.compile
class Bad:
    def get(self):
        pass
"""


class TestSuppressions:
    def test_same_line_suppression_by_id(self, lint_report, tmp_path):
        source = """
        from repro import obiwan

        @obiwan.compile
        class Bad:
            def get(self):  # obilint: disable=OBI102 -- legacy wire name, callers migrated in #42
                pass
        """
        report = lint_report(source, rule="OBI102")
        assert report.all_findings() == []
        assert len(report.suppressed) == 1

    def test_same_line_suppression_by_slug(self, lint_report):
        source = """
        from repro import obiwan

        @obiwan.compile
        class Bad:
            def get(self):  # obilint: disable=interface-shadowing -- legacy name
                pass
        """
        report = lint_report(source, rule="OBI102")
        assert report.all_findings() == []

    def test_file_level_suppression(self, lint_report):
        source = """
        # obilint: disable-file=OBI108 -- this module wraps wall time on purpose
        import time

        def a():
            return time.time()

        def b():
            return time.monotonic()
        """
        report = lint_report(source, rule="OBI108")
        assert report.all_findings() == []
        assert len(report.suppressed) == 2

    def test_suppression_only_covers_listed_rule(self, lint_report):
        source = """
        from repro import obiwan

        @obiwan.compile
        class Bad:
            cache = []

            def get(self):  # obilint: disable=OBI106 -- wrong rule id
                pass
        """
        report = lint_report(source)
        assert any(f.rule == "OBI102" for f in report.all_findings())

    def test_strict_requires_justification(self, lint_report):
        source = """
        from repro import obiwan

        @obiwan.compile
        class Bad:
            def get(self):  # obilint: disable=OBI102
                pass
        """
        relaxed = lint_report(source, rule="OBI102")
        assert relaxed.all_findings() == []
        strict = lint_report(source, rule="OBI102", strict=True)
        bare = [f for f in strict.all_findings() if f.rule == "OBI002"]
        assert len(bare) == 1
        assert strict.failed(strict=True)

    def test_parse_multiple_rules_one_comment(self):
        index = parse_suppressions(
            "x = 1  # obilint: disable=OBI101, OBI106 -- generated module\n"
        )
        assert index.matches("OBI101", "unserializable-state", 1)
        assert index.matches("OBI106", "mutable-class-default", 1)
        assert not index.matches("OBI102", "interface-shadowing", 1)


class TestEngine:
    def test_rule_selection(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(textwrap.dedent(BAD_CLASS), encoding="utf-8")
        report = analyze_paths([path], select={"OBI108"})
        assert report.all_findings() == []
        report = analyze_paths([path], select={"OBI102"})
        assert len(report.all_findings()) == 1

    def test_rule_ignore(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(textwrap.dedent(BAD_CLASS), encoding="utf-8")
        report = analyze_paths([path], ignore={"OBI102"})
        assert report.all_findings() == []

    def test_parse_failure_is_error_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        report = analyze_paths([path])
        assert report.failed()
        assert report.all_findings()[0].rule == "OBI001"

    def test_directory_collection_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n", encoding="utf-8")
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("def broken(:\n", encoding="utf-8")
        files = Analyzer.collect_files([tmp_path])
        assert [f.name for f in files] == ["good.py"]

    def test_missing_path_raises(self, tmp_path):
        import pytest

        with pytest.raises(FileNotFoundError):
            Analyzer(build_rules()).run([tmp_path / "nope"])

    def test_overlapping_paths_deduplicated(self, tmp_path):
        path = tmp_path / "one.py"
        path.write_text("x = 1\n", encoding="utf-8")
        files = Analyzer.collect_files([tmp_path, path])
        assert len(files) == 1

    def test_clean_report_passes_strict(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("def fine():\n    return 1\n", encoding="utf-8")
        report = analyze_paths([path], strict=True)
        assert not report.failed(strict=True)
        assert report.files_analyzed == 1


class TestCatalog:
    def test_twenty_one_rules_shipped(self):
        assert len(ALL_RULES) == 21
        assert len({rule.id for rule in ALL_RULES}) == 21

    def test_ids_and_names_stable(self):
        catalog = {rule.id: rule.name for rule in ALL_RULES}
        assert catalog == {
            "OBI101": "unserializable-state",
            "OBI102": "interface-shadowing",
            "OBI103": "replica-leak",
            "OBI104": "lock-discipline",
            "OBI105": "protocol-super-call",
            "OBI106": "mutable-class-default",
            "OBI107": "swallowed-exception",
            "OBI108": "nondeterministic-clock",
            "OBI201": "lock-order-cycle",
            "OBI202": "blocking-under-lock",
            "OBI203": "unguarded-state",
            "OBI204": "put-without-source",
            "OBI205": "demand-outside-fault-path",
            "OBI206": "splice-escape",
            "OBI209": "snapshot-read-mutation",
            "OBI210": "feed-apply-outside-epoch-check",
            "OBI301": "tag-collision",
            "OBI302": "wire-baseline-drift",
            "OBI303": "unencodable-wire-field",
            "OBI305": "unguarded-widened-tuple",
            "OBI306": "schema-input-drift",
        }

    def test_every_rule_documented(self):
        for rule in ALL_RULES:
            assert rule.description, rule.id
            assert rule.rationale, rule.id
