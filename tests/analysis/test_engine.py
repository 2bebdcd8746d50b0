"""Engine-level behaviour: suppressions, JSON output, stats, errors."""

import json
import textwrap

import pytest

from repro.analysis import LintEngine, LintError, META_RULE
from repro.analysis.rules import Rule
from tests.analysis.helpers import lint_snippet, rule_ids


def snippet(code: str) -> str:
    return textwrap.dedent(code).lstrip("\n")


class TestSuppressions:
    def test_justified_suppression_silences_finding(self, tmp_path):
        src = snippet("""
            def check(x):
                assert x  # repro: noqa R001 -- exercised by the fixture tests
        """)
        report = lint_snippet(tmp_path, src)
        assert report.findings == []
        assert len(report.suppressed) == 1
        finding, supp = report.suppressed[0]
        assert finding.rule == "R001"
        assert supp.justification == "exercised by the fixture tests"

    def test_suppression_without_justification_is_a_finding(self, tmp_path):
        src = snippet("""
            def check(x):
                assert x  # repro: noqa R001
        """)
        report = lint_snippet(tmp_path, src)
        # The original finding stays active AND the bad noqa is reported.
        assert sorted(rule_ids(report)) == [META_RULE, "R001"]
        meta = [f for f in report.findings if f.rule == META_RULE][0]
        assert "justification" in meta.message

    def test_suppression_for_unknown_rule(self, tmp_path):
        src = snippet("""
            x = 1  # repro: noqa R777 -- no such rule
        """)
        report = lint_snippet(tmp_path, src)
        assert rule_ids(report) == [META_RULE]
        assert "R777" in report.findings[0].message

    def test_unused_suppression_is_a_finding(self, tmp_path):
        src = snippet("""
            x = 1  # repro: noqa R001 -- nothing here actually asserts
        """)
        report = lint_snippet(tmp_path, src)
        assert rule_ids(report) == [META_RULE]
        assert "unused" in report.findings[0].message

    def test_suppression_only_covers_its_own_rule(self, tmp_path):
        src = snippet("""
            def check(x):
                assert x  # repro: noqa R002 -- wrong rule id for an assert
        """)
        report = lint_snippet(tmp_path, src)
        # R001 stays active; the R002 suppression is unused.
        assert sorted(rule_ids(report)) == [META_RULE, "R001"]

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        src = snippet('''
            def doc():
                """Explain that '# repro: noqa R001 -- why' suppresses."""
                return 1
        ''')
        report = lint_snippet(tmp_path, src)
        assert report.findings == []
        assert report.suppressions == []

    def test_multi_rule_suppression(self, tmp_path):
        src = snippet("""
            def check(net):
                assert net._hidden  # repro: noqa R001 R004 -- fixture exercising both
        """)
        report = lint_snippet(tmp_path, src)
        assert report.findings == []
        assert {f.rule for f, _ in report.suppressed} == {"R001", "R004"}


class TestReporting:
    def test_json_output_shape(self, tmp_path):
        src = snippet("""
            def check(x):
                assert x
        """)
        report = lint_snippet(tmp_path, src)
        doc = json.loads(report.to_json())
        assert doc["stats"]["findings"] == 1
        (f,) = doc["findings"]
        assert f["rule"] == "R001"
        assert f["line"] == 2
        assert f["path"].endswith("sample.py")

    def test_stats_counts_by_rule(self, tmp_path):
        src = snippet("""
            import random

            def check(x):
                assert x
                assert x + 1
        """)
        stats = lint_snippet(tmp_path, src).stats()
        assert stats["by_rule"] == {"R001": 2, "R002": 1}
        assert stats["files_checked"] == 1

    def test_exit_codes(self, tmp_path):
        clean = lint_snippet(tmp_path, "x = 1\n")
        assert clean.exit_code == 0
        dirty = lint_snippet(tmp_path, "assert True\n")
        assert dirty.exit_code == 1

    def test_finding_render_is_clickable(self, tmp_path):
        report = lint_snippet(tmp_path, "assert True\n")
        rendered = report.findings[0].render()
        path, line, col, rest = rendered.split(":", 3)
        assert path.endswith("sample.py")
        assert int(line) == 1
        assert rest.lstrip().startswith("R001")


class TestEngineEdges:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        report = lint_snippet(tmp_path, "def broken(:\n")
        assert rule_ids(report) == [META_RULE]
        assert "syntax error" in report.findings[0].message

    def test_missing_path_raises_lint_error(self):
        with pytest.raises(LintError):
            LintEngine().run(["/no/such/path/anywhere"])

    def test_the_base_rule_checks_nothing(self):
        """A ``Rule`` subclass that forgets ``check`` fails loudly."""
        with pytest.raises(NotImplementedError):
            Rule().check(None)

    def test_unreadable_file_raises_lint_error(self, tmp_path):
        (tmp_path / "odd.py").mkdir()  # matches *.py, cannot be read as text
        with pytest.raises(LintError, match="cannot read"):
            LintEngine().run([tmp_path])

    def test_deterministic_ordering(self, tmp_path):
        src = snippet("""
            import random

            def check(x):
                assert x
        """)
        a = lint_snippet(tmp_path, src)
        b = lint_snippet(tmp_path, src)
        assert [f.render() for f in a.findings] == [f.render() for f in b.findings]
