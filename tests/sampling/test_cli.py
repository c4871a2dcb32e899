"""The ``--sampling`` flag family across simulate/compare/figure/profile."""

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_result_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


SAMPLED = ["--sampling", "--interval-length", "5000", "--max-k", "3",
           "--warmup-intervals", "1"]


class TestSimulateSampled:
    def test_prints_reconstruction_summary(self, capsys):
        assert main(["simulate", "mcf", "mascot", "--uops", "30000",
                     *SAMPLED]) == 0
        out = capsys.readouterr().out
        assert "sampled: ipc" in out
        assert "CI" in out
        assert "of the trace simulated" in out or "coverage" in out

    def test_interval_length_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["simulate", "mcf", "mascot", "--uops", "30000",
                  "--sampling", "--interval-length", "0"])


class TestCompareSampled:
    def test_cells_annotated_with_ci(self, capsys):
        assert main(["compare", "mascot", "--benchmarks", "mcf",
                     "--uops", "30000", "--no-cache", *SAMPLED]) == 0
        out = capsys.readouterr().out
        assert "+-" in out
        assert "sampled simulation" in out
        assert "values are reconstructions" in out

    def test_unsampled_compare_has_no_footer(self, capsys):
        assert main(["compare", "mascot", "--benchmarks", "mcf",
                     "--uops", "30000", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sampled simulation" not in out
        assert "+-" not in out


class TestFigureGating:
    def test_sampling_rejected_outside_timing_figures(self, capsys):
        assert main(["figure", "fig13", "--sampling"]) == 2
        err = capsys.readouterr().err
        assert "--sampling" in err
        assert "fig7" in err


class TestProfileSampled:
    def test_renders_reconstruction_and_regions(self, capsys):
        assert main(["profile", "mcf", "mascot", "--uops", "30000",
                     *SAMPLED]) == 0
        out = capsys.readouterr().out
        assert "sampled reconstruction" in out
        assert "measured regions" in out
        assert "cycle stack" in out

    def test_measure_from_conflicts(self, capsys):
        assert main(["profile", "mcf", "mascot", "--uops", "30000",
                     "--measure-from", "1000", *SAMPLED]) == 2
        assert "mutually exclusive" in capsys.readouterr().err
