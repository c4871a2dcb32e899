"""Tests for the append-only run journal and its resume semantics."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.journal import (
    JOURNAL_DIR_ENV,
    JournalState,
    RunJournal,
    default_journal_dir,
    derive_run_id,
)
from repro.experiments.result_cache import encode_result
from repro.experiments.runner import PredictionRunResult
from repro.analysis.accuracy import AccuracyStats, Outcome, OutcomeKind
from repro.predictors.base import PredictionKind

KEYS = ["a" * 64, "b" * 64, "c" * 64]


def _result(mispredictions=1):
    stats = AccuracyStats()
    stats.instructions = 100
    stats.record(Outcome(OutcomeKind.CORRECT_MDP, PredictionKind.MDP, True))
    for _ in range(mispredictions):
        stats.record(Outcome(OutcomeKind.MISSED_DEP, PredictionKind.NO_DEP,
                             False))
    return PredictionRunResult(accuracy=stats,
                               predictions_per_table=[1, 0])


class TestRunId:
    def test_content_addressed(self):
        assert derive_run_id(KEYS) == derive_run_id(KEYS)
        assert derive_run_id(KEYS) == derive_run_id(list(reversed(KEYS)))
        assert derive_run_id(KEYS) != derive_run_id(KEYS[:2])
        assert derive_run_id(KEYS).startswith("run-")

    def test_repeat_runs_get_suffixes(self, tmp_path):
        journal = RunJournal(tmp_path)
        first = journal.begin(KEYS)
        first.finish()
        second = journal.begin(KEYS)
        second.finish()
        base = derive_run_id(KEYS)
        assert first.run_id == base
        assert second.run_id == f"{base}-2"
        assert journal.last_run_id == f"{base}-2"


class TestRoundTrip:
    def test_ok_records_restore_results(self, tmp_path):
        journal = RunJournal(tmp_path)
        run = journal.begin(KEYS)
        run.record_dispatch(KEYS[0], 1)
        run.record_ok(KEYS[0], attempts=1, duration=0.5, source="computed",
                      result=_result())
        run.record_fail(KEYS[1], attempts=2, kind="timeout", message="slow")
        run.finish()

        state = journal.load(run.run_id)
        assert set(state.completed) == {KEYS[0]}
        restored = state.completed[KEYS[0]]
        assert restored.to_dict() == _result().to_dict()
        assert set(state.failed) == {KEYS[1]}
        assert state.failed[KEYS[1]]["kind"] == "timeout"

    def test_ok_supersedes_earlier_fail(self, tmp_path):
        journal = RunJournal(tmp_path)
        run = journal.begin(KEYS)
        run.record_fail(KEYS[0], 1, "error", "first attempt died")
        run.record_ok(KEYS[0], 2, 0.1, "computed", _result())
        run.finish()
        state = journal.load(run.run_id)
        assert KEYS[0] in state.completed
        assert KEYS[0] not in state.failed

    def test_finish_is_idempotent(self, tmp_path):
        journal = RunJournal(tmp_path)
        run = journal.begin(KEYS)
        run.finish()
        run.finish()
        lines = journal.path_for(run.run_id).read_text().splitlines()
        events = [json.loads(line)["event"] for line in lines]
        assert events == ["run-start", "run-end"]


class TestTornTail:
    def test_truncated_final_line_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path)
        run = journal.begin(KEYS)
        run.record_ok(KEYS[0], 1, 0.1, "computed", _result())
        run.record_ok(KEYS[1], 1, 0.1, "computed", _result(2))
        run.finish()
        path = journal.path_for(run.run_id)
        lines = path.read_text().splitlines(keepends=True)
        # Tear the file mid-way through the second ok record, as a SIGKILL
        # during that write would: run-start and ok(KEYS[0]) survive.
        path.write_text("".join(lines[:2]) + lines[2][:40])
        state = journal.load(run.run_id)
        assert set(state.completed) == {KEYS[0]}

    def test_missing_run_raises_with_directory(self, tmp_path):
        journal = RunJournal(tmp_path)
        with pytest.raises(FileNotFoundError, match=str(tmp_path)):
            journal.load("run-nonexistent")


class TestLoadMany:
    def test_later_runs_win(self, tmp_path):
        journal = RunJournal(tmp_path)
        first = journal.begin(KEYS)
        first.record_ok(KEYS[0], 1, 0.1, "computed", _result(1))
        first.record_fail(KEYS[1], 1, "error", "boom")
        first.finish()
        second = journal.begin(KEYS)
        second.record_ok(KEYS[1], 1, 0.1, "computed", _result(3))
        second.finish()

        state = journal.load_many([first.run_id, second.run_id])
        assert set(state.completed) == {KEYS[0], KEYS[1]}
        assert state.completed[KEYS[1]].accuracy.mispredictions == 3
        assert state.failed == {}


class TestDefaultDir:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(JOURNAL_DIR_ENV, str(tmp_path / "j"))
        assert default_journal_dir() == tmp_path / "j"

    def test_falls_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(JOURNAL_DIR_ENV, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert default_journal_dir() == tmp_path / "cache" / "journals"

    def test_follows_given_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(JOURNAL_DIR_ENV, raising=False)
        assert default_journal_dir(tmp_path / "d") == tmp_path / "d" / "journals"
        monkeypatch.setenv(JOURNAL_DIR_ENV, str(tmp_path / "j"))
        assert default_journal_dir(tmp_path / "d") == tmp_path / "j"

    def test_probe_writable(self, tmp_path):
        assert RunJournal(tmp_path / "new").probe_writable() is None

    def test_probe_unwritable(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        error = RunJournal(blocker / "sub").probe_writable()
        assert error is not None


class TestJournalState:
    def test_encoding_matches_cache(self):
        # The journal stores the exact cache encoding, so results restored
        # from either source are bit-identical.
        result = _result()
        state = JournalState(run_id="x", completed={"k": result})
        assert encode_result(state.completed["k"]) == encode_result(result)


class TestResumeAfterCrash:
    def test_resume_recomputes_only_unleased_unfinished(self, tmp_path,
                                                        monkeypatch):
        """A coordinator killed with one cell in flight and one never
        dispatched: resume restores the two completed cells and
        recomputes exactly the other two, bit-identically.  The journal
        also holds a ``lease`` line for the in-flight cell, as runs of
        the retired worker backend wrote: the loader skips it, and the
        cell is recomputed like any unfinished one."""
        from repro.experiments import parallel
        from repro.experiments.parallel import CellSpec, execute_cells
        from repro.experiments.result_cache import cell_key

        grid = [CellSpec(mode="accuracy", benchmark=b, num_uops=3_000,
                         predictor="mascot")
                for b in ("exchange2", "lbm", "mcf", "xalancbmk")]
        keys = [cell_key(spec) for spec in grid]
        journal = RunJournal(tmp_path)
        full = execute_cells(grid, journal=journal)

        # Forge the crashed run: completion of the last two cells never
        # made it to disk, and an old-format lease line names the third.
        lines = journal.path_for(journal.last_run_id).read_text().splitlines()
        kept = [line for line in lines
                if not (('"event": "ok"' in line
                         and (keys[2] in line or keys[3] in line))
                        or '"event": "run-end"' in line)]
        kept.append(json.dumps(
            {"event": "lease", "action": "grant", "key": keys[2],
             "lease": "lease-dead", "worker": "w0"}, sort_keys=True))
        (tmp_path / "run-crashed.jsonl").write_text("\n".join(kept) + "\n")

        state = journal.load("run-crashed")
        assert set(state.completed) == {keys[0], keys[1]}
        assert keys[2] not in state.failed

        recomputed = []
        real = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: recomputed.append(spec)
                            or real(spec))
        resumed = execute_cells(grid, journal=journal, resume="run-crashed")
        assert {grid.index(spec) for spec in recomputed} == {2, 3}
        for got, want in zip(resumed, full):
            assert got.to_dict() == want.to_dict()


@pytest.fixture(scope="module")
def crash_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("crash-journals")


class TestCrashSafetyProperty:
    """Any byte-level crash point leaves a loadable, consistent journal."""

    _ENCODED = None  # computed lazily; encode once for all examples

    @classmethod
    def _encoded(cls):
        if cls._ENCODED is None:
            cls._ENCODED = encode_result(_result())
        return cls._ENCODED

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_loads_disjoint_state(self, data, crash_dir):
        events = data.draw(st.lists(st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sampled_from(["ok", "fail", "grant", "renew", "expire"])),
            max_size=14))
        lines = [json.dumps({"event": "run-start", "v": 1, "run_id": "run-x",
                             "cells": len(KEYS), "keys": KEYS},
                            sort_keys=True)]
        for index, kind in events:
            key = KEYS[index]
            if kind == "ok":
                record = {"event": "ok", "key": key, "attempts": 1,
                          "duration": 0.0, "source": "computed",
                          "result": self._encoded()}
            elif kind == "fail":
                record = {"event": "fail", "key": key, "attempts": 1,
                          "kind": "worker-lost", "message": "boom"}
            else:  # lease lines of old journals: skipped on load
                record = {"event": "lease", "action": kind, "key": key,
                          "lease": "lease-p", "worker": "w0"}
            lines.append(json.dumps(record, sort_keys=True))
        text = "\n".join(lines) + "\n"
        cut = data.draw(st.integers(min_value=0, max_value=len(text)))
        journal = RunJournal(crash_dir)
        journal.path_for("run-x").write_text(text[:cut])

        state = journal.load("run-x")  # must never raise
        # A cell is never both finished and failed.
        assert not (set(state.completed) & set(state.failed))
        # Completion is exactly the intact ok lines of the surviving
        # prefix, each restored bit-identically to what was written.
        surviving_ok = set()
        for line in text[:cut].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("event") == "ok":
                surviving_ok.add(record["key"])
        assert set(state.completed) == surviving_ok
        for key in surviving_ok:
            assert encode_result(state.completed[key]) == self._encoded()


class TestJournalFollowsCacheDir:
    """``--cache-dir D`` without ``--journal-dir`` journals under
    ``D/journals``, not under the default cache directory."""

    @pytest.fixture
    def dirs(self, tmp_path, monkeypatch):
        monkeypatch.delenv(JOURNAL_DIR_ENV, raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        return tmp_path / "d", tmp_path / "default"

    @staticmethod
    def _args(*flags):
        from repro.cli import _build_parser

        return _build_parser().parse_args(
            ["accuracy", "mascot", "--benchmarks", "exchange2",
             "--uops", "1000", *flags])

    def test_run_journals_under_cache_dir(self, dirs):
        from repro.experiments.parallel import CellSpec, Execution

        cache_dir, default = dirs
        execution = Execution.from_args(self._args("--cache-dir",
                                                   str(cache_dir)))
        execution.run([CellSpec(mode="accuracy", benchmark="exchange2",
                                num_uops=1000, predictor="mascot")])
        assert list((cache_dir / "journals").glob("*.jsonl"))
        assert not (default / "journals").exists()

    def test_resume_without_journaling_reads_cache_dir(self, dirs):
        from repro.experiments.parallel import Execution

        cache_dir, _ = dirs
        run = RunJournal(cache_dir / "journals").begin(KEYS[:1])
        run.record_ok(KEYS[0], attempts=1, duration=0.5, source="computed",
                      result=_result())
        run.finish()
        execution = Execution.from_args(self._args(
            "--cache-dir", str(cache_dir), "--no-journal",
            "--resume", run.run_id))
        assert set(execution.resume.completed) == {KEYS[0]}

    def test_doctor_checks_cache_dir_journal(self, dirs):
        from repro.doctor import _check_journal_dir

        cache_dir, _ = dirs
        ok, note = _check_journal_dir(None, str(cache_dir))
        assert ok and str(cache_dir / "journals") in note
