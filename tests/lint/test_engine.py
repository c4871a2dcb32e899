"""Engine plumbing: pragmas (the one way to accept a finding), finding
identity, reporters, family filters, errors."""

from __future__ import annotations

import hashlib
import json

from repro.lint import lint_paths
from repro.lint.engine import (ALL_FAMILIES, ALL_RULES, collect_files,
                               rule_family)
from repro.lint.report import render_text

import pytest


class TestRuleRegistry:
    def test_all_families_plus_parse_error_registered(self):
        assert "parse-error" in ALL_RULES
        assert "oracle-leak" in ALL_RULES
        for prefix in ("det-", "eq-", "conc-"):
            assert any(rule.startswith(prefix) for rule in ALL_RULES), prefix

    def test_hardware_family_retired(self):
        # Buildable-hardware rules hold on live objects, in the predictor
        # constructors and tests/predictors/test_storage.py.
        assert not any(rule.startswith("hw-") for rule in ALL_RULES)
        assert "hw" not in ALL_FAMILIES

    def test_family_registry_matches_rules(self):
        assert set(ALL_FAMILIES) == {rule_family(r) for r in ALL_RULES}

    def test_descriptions_are_nonempty(self):
        assert all(ALL_RULES.values())


class TestCollectFiles:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_files([tmp_path / "nope"])

    def test_directories_and_files_deduped_and_sorted(self, box):
        a = box.write("a.py", "x = 1\n")
        box.write("sub/b.py", "y = 2\n")
        files = collect_files([box.root, a])
        assert [f.name for f in files] == ["a.py", "b.py"]


class TestParseError:
    def test_syntax_error_becomes_finding(self, box):
        box.write("broken.py", "def oops(:\n")
        findings = box.lint()
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].active
        assert "syntax error" in findings[0].message


class TestSuppressions:
    def test_pragma_covers_own_and_next_line_only(self, box):
        box.write("mod.py", """
        def f(a, b):
            keys = id(a)  # repro-lint: allow(det-id)
            # repro-lint: allow(det-id) -- next-line form
            more = id(b)
            far = id((a, b))
            return keys, more, far
        """)
        findings = box.lint()
        assert [f.suppressed for f in findings] == [True, True, False]

    def test_pragma_for_other_rule_does_not_suppress(self, box):
        box.write("mod.py", """
        def f(a):
            # repro-lint: allow(det-hash) -- wrong rule on purpose
            return id(a)
        """)
        assert box.active_rules() == ["det-id"]

    def test_multi_rule_pragma(self, box):
        box.write("mod.py", """
        def f(a):
            # repro-lint: allow(det-id, det-hash) -- both on one line
            return id(a) + hash(a)
        """)
        findings = box.lint()
        assert {f.rule for f in findings} == {"det-id", "det-hash"}
        assert all(f.suppressed for f in findings)

    def test_allow_file_pragma_covers_whole_module(self, box):
        box.write("mod.py", """
        # repro-lint: allow-file(det-id) -- identity keys throughout
        def f(a):
            return id(a)


        def g(b):
            return id(b)
        """)
        findings = box.lint()
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)


class TestFingerprints:
    """A finding's rule, module and symbol identify it; its line locates it."""

    def test_fingerprint_ignores_line_numbers(self, box):
        source = """
        def f(a):
            return id(a)
        """
        box.write("mod.py", source)
        (before,) = box.lint()
        box.write("mod.py", "\n\n\n" + source)  # shift every line down
        (after,) = box.lint()
        assert after.line == before.line + 3
        assert ((after.rule, after.module, after.symbol, after.message)
                == (before.rule, before.module, before.symbol,
                    before.message))

    def test_fingerprint_distinguishes_rules_and_symbols(self, box):
        box.write("mod.py", """
        def f(a):
            return id(a), hash(a)


        def g(a):
            return id(a)
        """)
        findings = sorted(box.lint(), key=lambda f: f.sort_key())
        assert [(f.rule, f.symbol) for f in findings] == [
            ("det-id", "mod:f"), ("det-hash", "mod:f"), ("det-id", "mod:g"),
        ]
        assert findings[0] != findings[1] != findings[2] != findings[0]


class TestBaseline:
    """A justified pragma is the one way to accept a finding: no baseline
    file is read or written."""

    DIRTY = """
    def f(a):
        return id(a)
    """

    def test_missing_baseline_file_is_empty(self):
        from importlib.util import find_spec
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        assert not (repo / "lint-baseline.json").exists()
        assert find_spec("repro.lint.baseline") is None

    def test_new_findings_stay_active_under_old_baseline(
            self, box, tmp_path_factory, monkeypatch, capsys):
        from repro.lint.cli import main

        box.write("mod.py", self.DIRTY)
        (finding,) = box.lint()
        # A leftover baseline in the retired format, listing this very
        # finding under the fingerprint that once accepted it.
        basis = "\x1f".join(
            [finding.rule, finding.module, finding.symbol, finding.message])
        workdir = tmp_path_factory.mktemp("work")
        (workdir / "lint-baseline.json").write_text(json.dumps({
            "version": 1,
            "findings": [{
                "rule": finding.rule, "module": finding.module,
                "symbol": finding.symbol, "message": finding.message,
                "fingerprint":
                    hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16],
            }],
        }))
        monkeypatch.chdir(workdir)
        assert main([str(box.root)]) == 1
        out = capsys.readouterr().out
        assert "det-id" in out and "1 finding" in out

    def test_suppressed_findings_are_not_written(
            self, box, tmp_path_factory, monkeypatch, capsys):
        from repro.lint.cli import main

        box.write("mod.py", """
        def f(a):
            # repro-lint: allow(det-id) -- accepted by pragma
            return id(a)
        """)
        workdir = tmp_path_factory.mktemp("work")
        monkeypatch.chdir(workdir)
        assert main([str(box.root)]) == 0
        assert "det-id" not in capsys.readouterr().out
        # The run wrote nothing: no baseline next to the code or the cwd.
        assert list(workdir.iterdir()) == []
        assert sorted(p.name for p in box.root.iterdir()) == ["mod.py"]


class TestReporters:
    def _one_finding(self, box):
        box.write("mod.py", """
        def f(a):
            return id(a)
        """)
        return box.lint()

    def test_text_report_lists_location_and_rule(self, box):
        findings = self._one_finding(box)
        text = render_text(findings, files=1)
        assert "mod.py:3:" in text
        assert "det-id" in text
        assert "1 file" in text

    def test_text_report_hides_suppressed_by_default(self, box):
        box.write("mod.py", """
        def f(a):
            # repro-lint: allow(det-id) -- fine
            return id(a)
        """)
        findings = box.lint()
        assert "det-id" not in render_text(findings, files=1)
        shown = render_text(findings, files=1, show_suppressed=True)
        assert "det-id" in shown and "fine" in shown

    def test_json_report_schema(self, box, tmp_path, capsys):
        # The --metrics record is the lint's one JSON report.
        from repro.lint.cli import main

        box.write("mod.py", """
        def f(a):
            # repro-lint: allow(det-id) -- fine
            return id(a), hash(a)
        """)
        metrics = tmp_path / "obs" / "lint.jsonl"
        assert main([str(box.root), "--metrics", str(metrics)]) == 1
        capsys.readouterr()
        (record,) = [json.loads(line)
                     for line in metrics.read_text().splitlines()]
        assert set(record) == {"event", "files", "rules_run", "active",
                               "suppressed", "findings_by_family",
                               "wall_seconds"}
        assert (record["active"], record["suppressed"]) == (1, 1)
        assert record["findings_by_family"] == {"det": 1}


class TestFamilyFilters:
    DIRTY = """
        def f(a):
            return id(a)
    """

    def test_select_keeps_only_named_families(self, box):
        box.write("mod.py", self.DIRTY)
        result = lint_paths([box.root], select=["det"])
        assert [f.rule for f in result.active] == ["det-id"]
        result = lint_paths([box.root], select=["eq", "conc"])
        assert result.active == []

    def test_ignore_drops_named_families(self, box):
        box.write("mod.py", self.DIRTY)
        result = lint_paths([box.root], ignore=["det"])
        assert result.active == []

    def test_unknown_family_raises_value_error(self, box):
        box.write("mod.py", "x = 1\n")
        with pytest.raises(ValueError, match="unknown rule family"):
            lint_paths([box.root], select=["bogus"])
        with pytest.raises(ValueError, match="unknown rule family"):
            lint_paths([box.root], ignore=["bogus"])

    def test_parse_error_survives_any_selection(self, box):
        box.write("broken.py", "def f(:\n")
        result = lint_paths([box.root], select=["eq"])
        assert [f.rule for f in result.active] == ["parse-error"]


class TestCliFamilyFiltersAndMetrics:
    def test_select_flag_filters_and_exits_clean(self, box, capsys):
        from repro.lint.cli import main

        box.write("mod.py", TestFamilyFilters.DIRTY)
        assert main([str(box.root), "--select", "eq,conc"]) == 0
        assert main([str(box.root), "--select", "det"]) == 1
        capsys.readouterr()

    def test_unknown_family_exits_2(self, box, capsys):
        from repro.lint.cli import main

        box.write("mod.py", "x = 1\n")
        assert main([str(box.root), "--select", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule family" in err

    def test_metrics_flag_appends_jsonl_record(self, box, tmp_path, capsys):
        from repro.lint.cli import main

        box.write("mod.py", TestFamilyFilters.DIRTY)
        metrics = tmp_path / "obs" / "lint.jsonl"
        assert main([str(box.root), "--metrics", str(metrics)]) == 1
        assert main([str(box.root), "--metrics", str(metrics),
                     "--select", "eq"]) == 0
        capsys.readouterr()
        lines = [json.loads(line)
                 for line in metrics.read_text().splitlines()]
        assert len(lines) == 2
        first, second = lines
        assert first["event"] == "lint"
        assert first["files"] == 1
        assert first["active"] == 1
        assert first["findings_by_family"] == {"det": 1}
        assert first["wall_seconds"] >= 0
        assert first["rules_run"] == len(ALL_RULES)
        # The eq-only run checks fewer rules and finds nothing.
        assert second["active"] == 0
        assert second["rules_run"] < first["rules_run"]
