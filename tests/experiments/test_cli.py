"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.trace import generate_trace, write_trace


@pytest.fixture(autouse=True)
def isolated_result_cache(tmp_path, monkeypatch):
    """Keep the CLI's default-on result cache out of the user's home."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


class TestSimulate:
    def test_runs(self, capsys):
        assert main(["simulate", "exchange2", "mascot",
                     "--uops", "4000"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out
        assert "exchange2 / mascot" in out

    def test_lion_cove(self, capsys):
        assert main(["simulate", "exchange2", "phast", "--uops", "4000",
                     "--core", "lion-cove"]) == 0
        assert "lion-cove" in capsys.readouterr().out

    def test_lion_cove_replays_the_suite_cell(self, capsys):
        # The trace is cut for the simulated core's store and instruction
        # windows, as every suite cell's is, so `simulate` prints the
        # cycles `compare` and Fig. 12 compute for the same cell.
        from repro.core.config import LION_COVE
        from repro.experiments.suite import run_ipc_suite

        assert main(["simulate", "exchange2", "tage-no-nd", "--uops",
                     "10000", "--core", "lion-cove"]) == 0
        rows = dict(line.split() for line in capsys.readouterr().out
                    .splitlines() if len(line.split()) == 2)
        suite = run_ipc_suite(["tage-no-nd"], ["exchange2"], 10_000,
                              config=LION_COVE)
        assert int(rows["cycles"]) == (
            suite.stats["tage-no-nd"]["exchange2"].cycles)

    @pytest.mark.parametrize("core,predictor", [
        ("golden-cove", "mascot"), ("golden-cove", "perfect-mdp-smb"),
        ("lion-cove", "mascot"), ("lion-cove", "perfect-mdp-smb"),
    ])
    def test_simulate_matches_compare(self, capsys, core, predictor):
        from repro.cli import _CORES
        from repro.experiments.suite import run_ipc_suite

        assert main(["simulate", "exchange2", predictor, "--uops", "6000",
                     "--core", core]) == 0
        rows = dict(line.split() for line in capsys.readouterr().out
                    .splitlines() if len(line.split()) == 2)
        suite = run_ipc_suite([predictor], ["exchange2"], 6_000,
                              config=_CORES[core])
        assert int(rows["cycles"]) == (
            suite.stats[predictor]["exchange2"].cycles)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "nonexistent", "mascot"])

    def test_unknown_predictor_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "lbm", "oracle-of-delphi"])


class TestEngineFlagRetired:
    @pytest.mark.parametrize("argv", [
        ["simulate", "lbm", "mascot", "--engine", "batched"],
        ["compare", "mascot", "--engine", "scalar"],
        ["error-budget", "--engine", "batched"],
    ])
    def test_engine_flag_is_unknown(self, argv, capsys):
        """Every timing run is batched; there is no engine to choose."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


class TestCompare:
    def test_runs(self, capsys):
        assert main(["compare", "mascot", "phast",
                     "--benchmarks", "exchange2",
                     "--uops", "4000"]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out
        assert "mascot" in out

    def test_parallel_matches_serial(self, capsys):
        """--jobs must not change a single digit of the output."""
        assert main(["compare", "mascot", "--benchmarks", "exchange2",
                     "--uops", "4000", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["compare", "mascot", "--benchmarks", "exchange2",
                     "--uops", "4000", "--no-cache", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_dir_used(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-cache"
        assert main(["compare", "mascot", "--benchmarks", "exchange2",
                     "--uops", "4000", "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert list(cache_dir.glob("*.json"))  # populated
        assert main(["compare", "mascot", "--benchmarks", "exchange2",
                     "--uops", "4000", "--cache-dir", str(cache_dir)]) == 0
        assert capsys.readouterr().out == first  # warm hit, same digits


class TestAccuracy:
    def test_runs(self, capsys):
        assert main(["accuracy", "mascot",
                     "--benchmarks", "exchange2",
                     "--uops", "4000"]) == 0
        out = capsys.readouterr().out
        assert "false dependencies" in out


class TestFaultTolerance:
    def test_keep_going_marks_failures_and_exits_nonzero(self, monkeypatch,
                                                         capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        assert main(["compare", "mascot", "phast",
                     "--benchmarks", "exchange2", "lbm",
                     "--uops", "3000", "--no-cache", "--keep-going"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "FAILED timing:lbm/phast" in captured.err

    def test_fail_fast_is_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        with pytest.raises(RuntimeError, match="injected fault"):
            main(["compare", "phast", "--benchmarks", "lbm",
                  "--uops", "3000", "--no-cache"])

    def test_figure_keep_going_annotates_and_exits_nonzero(self,
                                                           monkeypatch,
                                                           capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        assert main(["figure", "fig8", "--benchmarks", "exchange2", "lbm",
                     "--uops", "3000", "--no-cache", "--keep-going"]) == 1
        captured = capsys.readouterr()
        assert "WARNING" in captured.out
        assert "FAILED accuracy:lbm/phast" in captured.err

    def test_fail_fast_and_keep_going_conflict(self):
        with pytest.raises(SystemExit):
            main(["compare", "mascot", "--fail-fast", "--keep-going"])

    def test_rejects_bad_retry_and_timeout_values(self):
        # There is no retry flag: rerunning on the cache is the retry.
        with pytest.raises(SystemExit):
            main(["compare", "mascot", "--retries", "2"])
        with pytest.raises(SystemExit):
            main(["compare", "mascot", "--cell-timeout", "0"])

    def test_rerun_after_keep_going_failure(self, monkeypatch, tmp_path,
                                            capsys):
        """A failed cell is never cached: rerunning the command on the
        same cache computes only it and prints the clean grid."""
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        assert main(["accuracy", "phast", "--benchmarks", "exchange2",
                     "lbm", "--uops", "3000", "--keep-going",
                     "--cache-dir", cache_dir]) == 1
        capsys.readouterr()

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        metrics = tmp_path / "rerun.jsonl"
        assert main(["accuracy", "phast", "--benchmarks", "exchange2",
                     "lbm", "--uops", "3000", "--cache-dir", cache_dir,
                     "--metrics", str(metrics)]) == 0
        rerun_out = capsys.readouterr().out
        sources = {(r["benchmark"], r["source"]) for r in
                   map(json.loads, metrics.read_text().splitlines())
                   if r["event"] == "cell"}
        assert sources == {("exchange2", "cache"), ("lbm", "computed")}

        assert main(["accuracy", "phast", "--benchmarks", "exchange2",
                     "lbm", "--uops", "3000", "--no-cache"]) == 0
        assert capsys.readouterr().out == rerun_out

    @pytest.mark.parametrize("argv", [
        ["compare", "mascot", "--resume", "run-0123456789ab"],
        ["accuracy", "mascot", "--no-journal"],
        ["figure", "fig7", "--journal-dir", "journals"],
        ["doctor", "--journal-dir", "journals"],
    ])
    def test_retired_journal_flags_exit_with_usage_error(self, argv,
                                                         capsys):
        """The run journal is gone; the cache is the resume."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestDoctor:
    def test_healthy_environment_passes(self, tmp_path, capsys):
        assert main(["doctor", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "worker spawn ok" in out

    def test_unwritable_cache_fails_with_actionable_message(self, tmp_path,
                                                            capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["doctor", "--cache-dir", str(blocker / "sub")]) == 1
        out = capsys.readouterr().out
        assert "FAIL [cache]" in out
        assert "--cache-dir" in out


class TestFigure:
    def test_table2(self, capsys):
        assert main(["figure", "table2"]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "512/204/192/114" in capsys.readouterr().out

    def test_fig2_reduced(self, capsys):
        assert main(["figure", "fig2", "--benchmarks", "lbm",
                     "--uops", "4000"]) == 0
        assert "Fig. 2" in capsys.readouterr().out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestSizes:
    def test_prints_table2(self, capsys):
        assert main(["sizes"]) == 0
        out = capsys.readouterr().out
        assert "mascot" in out
        assert "14.00" in out


class TestGenTrace:
    def test_writes_file(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        assert main(["gen-trace", "exchange2", str(path),
                     "--uops", "2000"]) == 0
        from repro.trace.stream import read_trace
        assert len(read_trace(path)) == 2000


class TestValidate:
    def test_valid_trace_passes(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["gen-trace", "exchange2", str(path), "--uops", "2000"])
        capsys.readouterr()
        assert main(["validate", str(path)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_corrupted_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "t.trace"
        main(["gen-trace", "exchange2", str(path), "--uops", "1000"])
        text = path.read_text().splitlines()
        # Corrupt one load's dependence annotation fields (distance).
        for i, line in enumerate(text[1:], start=1):
            parts = line.split()
            if parts[1] == "load" and parts[9] != "0":
                parts[9] = "99"
                text[i] = " ".join(parts)
                break
        path.write_text("\n".join(text) + "\n")
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        assert "ERROR" in capsys.readouterr().out

    def test_core_names_the_windows(self, tmp_path, capsys):
        # exchange2's first 2000 micro-ops hold one load whose store is in
        # flight on Lion Cove (128-entry SB) but not on Golden Cove (114).
        path = tmp_path / "t.trace"
        write_trace(generate_trace("exchange2", 2000, store_window=128,
                                   instr_window=576), path)
        assert main(["validate", str(path), "--core", "lion-cove"]) == 0
        assert main(["validate", str(path)]) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", str(path), "--store-window", "114"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        "not a trace\n",
        "#repro-trace v1 x 2\n0 alu 400000 - - 0 0 0 0 0 - none\n"
        "1 alu 400004 -5 - 0 0 0 0 0 - none\n",
    ], ids=["bad-header", "negative-source"])
    def test_unreadable_trace_fails(self, tmp_path, capsys, body):
        path = tmp_path / "t.trace"
        path.write_text(body)
        assert main(["validate", str(path)]) == 1
        assert "ERROR" in capsys.readouterr().out
