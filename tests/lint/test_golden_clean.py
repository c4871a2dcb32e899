"""Golden + end-to-end CLI tests.

The golden test is the acceptance criterion that the shipped tree is
clean; the CLI tests prove the linter exits non-zero when the oracle or
determinism contracts are broken (ISSUE acceptance criteria).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro
from repro.lint import lint_paths
from repro.lint.cli import main

REPRO_PACKAGE = Path(repro.__file__).parent


class TestGoldenTreeIsClean:
    def test_lint_paths_on_shipped_tree(self):
        result = lint_paths([REPRO_PACKAGE])
        assert result.ok, result.active
        assert result.files > 50  # the whole package, not a subset

    def test_cli_report_is_clean(self, capsys):
        exit_code = main([str(REPRO_PACKAGE)])
        summary = capsys.readouterr().out.splitlines()[-1]
        assert exit_code == 0
        match = re.fullmatch(
            r"repro-lint: \d+ files checked, 0 findings \((\d+) suppressed\)",
            summary)
        # Suppressions are justified debt, not invisible: they still appear.
        assert match and int(match.group(1)) > 0, summary


class TestCliExitCodes:
    def test_oracle_read_in_fake_predictor_fails_run(self, tmp_path, capsys):
        # Acceptance criterion: a non-oracle predict() reading uop.bypass /
        # uop.dep_store_seq must make `repro lint` exit non-zero.
        (tmp_path / "fake.py").write_text(
            "from repro.predictors.base import MDPredictor, Prediction\n"
            "from repro.predictors.base import PredictionKind\n"
            "\n"
            "\n"
            "class Fake(MDPredictor):\n"
            "    def predict(self, uop):\n"
            "        if uop.bypass or uop.dep_store_seq is not None:\n"
            "            return Prediction(PredictionKind.SMB, distance=1)\n"
            "        return Prediction(PredictionKind.NO_DEP)\n"
            "\n"
            "    def train(self, uop, prediction, actual):\n"
            "        pass\n",
            encoding="utf-8",
        )
        exit_code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "oracle-leak" in out

    def test_unseeded_rng_in_experiment_cell_fails_run(self, tmp_path, capsys):
        # Acceptance criterion: unseeded RNG in an experiment cell.
        (tmp_path / "cell.py").write_text(
            "import random\n"
            "\n"
            "\n"
            "def run_cell(benchmark, predictor):\n"
            "    jitter = random.random()\n"
            "    return benchmark, predictor, jitter\n",
            encoding="utf-8",
        )
        exit_code = main([str(tmp_path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "det-unseeded-rng" in out

    def test_missing_path_exits_2(self, tmp_path, capsys):
        exit_code = main([str(tmp_path / "does-not-exist")])
        assert exit_code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("oracle-leak", "det-unseeded-rng", "eq-config-read",
                     "conc-socket"):
            assert rule in out
        assert "hw-" not in out

    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    def test_retired_hw_family_is_a_usage_error(self, tmp_path, capsys,
                                                flag):
        (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path), flag, "hw"]) == 2
        assert "unknown rule family 'hw'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--baseline", "f"], ["--update-baseline"], ["--format", "json"],
    ], ids=["baseline", "update-baseline", "format"])
    def test_retired_baseline_and_format_flags_are_usage_errors(
            self, tmp_path, capsys, argv):
        # A finding is accepted only by a justified pragma; the report is
        # text only.
        with pytest.raises(SystemExit) as exit_info:
            main([str(tmp_path), *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
