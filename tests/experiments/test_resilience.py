"""Failure-path tests for the fault-tolerant suite engine.

Faults are injected through the ``REPRO_FAULT_INJECT`` environment
variable (inherited by worker processes, where monkeypatching cannot
reach): worker exceptions, SIGKILL crashes (→ ``BrokenProcessPool``,
charged to the crashing slot's cell) and hangs (→ timeout enforcement).
Each cell is dispatched once; rerunning on the same cache is the retry.
The golden test at the end is the acceptance scenario: crash + timeout +
corrupted cache entry in one run, then a rerun on the same cache that
recomputes exactly the failed cells and serves the rest bit-identically.
"""

import dataclasses
import json

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.resilience import (
    CellExecutionError,
    CellFailure,
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
    cell_label,
    inline_execution,
    parse_fault_spec,
)
from repro.experiments.result_cache import ResultCache, cell_key

N = 3_000


def _cell(benchmark, predictor="mascot"):
    return CellSpec(mode="accuracy", benchmark=benchmark, num_uops=N,
                    predictor=predictor)


#: A small mixed grid; faults target specific (benchmark, predictor)
#: pairs so every other cell must come through unscathed.
GRID = [_cell("exchange2"), _cell("lbm"), _cell("lbm", "phast"),
        _cell("perlbench1")]


class TestPolicy:
    def test_default_is_fail_fast_no_retries(self):
        """Two knobs and no retry: a failed cell is rerun by rerunning
        the command on its cache."""
        policy = ResiliencePolicy()
        assert [f.name for f in dataclasses.fields(policy)] == [
            "cell_timeout", "fail_fast"]
        assert policy.fail_fast and policy.cell_timeout is None

    @pytest.mark.parametrize("bad", [
        {"cell_timeout": 0}, {"cell_timeout": -1.0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ResiliencePolicy(**bad)


class TestFaultSpecParsing:
    def test_empty_and_switch_values(self):
        assert parse_fault_spec("") == []
        assert parse_fault_spec("0") == []
        assert parse_fault_spec("1") == []

    def test_clauses(self):
        clauses = parse_fault_spec(
            "error=lbm/phast;hang=mcf/nosq@2.5")
        assert [c.kind for c in clauses] == ["error", "hang"]
        assert clauses[0].benchmark == "lbm"
        assert clauses[0].predictor == "phast"
        assert clauses[1].arg == "2.5"

    @pytest.mark.parametrize("bad", [
        "explode=lbm/phast", "error=lbm", "error", "error=/phast",
        # The worker-protocol kinds went with the worker protocol.
        "stall=lbm/phast", "torn=lbm/phast", "corrupt-once=lbm/phast@x",
        # Fire-once faults went with in-run retries.
        "crash-once=lbm/phast@latch",
    ])
    def test_rejects_bad_clauses(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestInjectedError:
    def test_fail_fast_propagates(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        with pytest.raises(RuntimeError, match="injected fault"):
            execute_cells(GRID)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keep_going_marks_only_the_faulty_cell(self, monkeypatch, jobs):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        policy = ResiliencePolicy(fail_fast=False)
        results = execute_cells(GRID, jobs=jobs, policy=policy)
        kinds = [type(r).__name__ for r in results]
        assert kinds == ["PredictionRunResult", "PredictionRunResult",
                         "CellFailure", "PredictionRunResult"]
        failure = results[2]
        assert failure.kind is FailureKind.ERROR
        assert "injected fault" in failure.message
        assert failure.describe().startswith("accuracy:lbm/phast: error: ")


def _records(path):
    """Per-cell metrics records, by (benchmark, predictor); each cell
    settles exactly once, so it has exactly one record."""
    cells = [r for r in map(json.loads, path.read_text().splitlines())
             if r["event"] == "cell"]
    records = {(r["benchmark"], r["predictor"]): r for r in cells}
    assert len(records) == len(cells)
    return records


class TestWorkerCrash:
    """A slot runs one cell, so a dead worker names its cell: that cell
    fails, its slot is respawned, and the other slots' cells never
    notice."""

    def test_persistent_crash_is_attributed_to_the_culprit(self,
                                                           monkeypatch):
        """The culprit fails once and the innocents all complete."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash=lbm/phast")
        results = execute_cells(GRID, jobs=2,
                                policy=ResiliencePolicy(fail_fast=False))
        assert isinstance(results[2], CellFailure)
        assert results[2].kind is FailureKind.WORKER_LOST
        for i in (0, 1, 3):
            assert not isinstance(results[i], CellFailure)

    def test_persistent_crash_fail_fast_raises(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash=lbm/phast")
        with pytest.raises(BrokenProcessPool):
            execute_cells(GRID, jobs=2)

    def test_crash_leaves_the_other_slots_cell_running(self, monkeypatch,
                                                       tmp_path):
        """exchange2/mascot sleeps 1.5 s on one slot while lbm/mascot
        kills the other slot's worker: the sleeper is neither charged
        nor re-dispatched."""
        clean = execute_cells([GRID[0]])[0]
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "hang=exchange2/mascot@1.5;crash=lbm/mascot")
        metrics = tmp_path / "m.jsonl"
        results = execute_cells(GRID, jobs=2, metrics=metrics,
                                policy=ResiliencePolicy(fail_fast=False))
        assert results[1].kind is FailureKind.WORKER_LOST
        assert results[0].to_dict() == clean.to_dict()
        records = _records(metrics)
        assert records[("exchange2", "mascot")]["status"] == "ok"
        assert {r["worker"] for r in records.values()} <= {"local:0",
                                                           "local:1"}


class TestTimeout:
    def test_hung_cell_times_out_keep_going(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang=lbm/phast@30")
        policy = ResiliencePolicy(cell_timeout=1.5, fail_fast=False)
        results = execute_cells(GRID, jobs=2, policy=policy)
        assert isinstance(results[2], CellFailure)
        assert results[2].kind is FailureKind.TIMEOUT
        for i in (0, 1, 3):
            assert not isinstance(results[i], CellFailure)

    def test_hung_cell_fail_fast_raises_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang=lbm/phast@30")
        policy = ResiliencePolicy(cell_timeout=1.0)
        with pytest.raises(CellTimeoutError):
            execute_cells([GRID[2]], policy=policy)

    def test_queued_cells_do_not_accrue_timeout(self, monkeypatch):
        """A cell's timeout clock must not run while it waits for a free
        worker: four ~0.7s cells through one worker exceed the 1.5s
        timeout cumulatively, but no single cell ever does."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang=exchange2/mascot@0.7")
        policy = ResiliencePolicy(cell_timeout=1.5)  # fail-fast: any
        grid = [_cell("exchange2")] * 4              # timeout raises
        results = execute_cells(grid, jobs=1, policy=policy)
        assert all(not isinstance(r, CellFailure) for r in results)

    def test_timeout_leaves_the_other_slots_cell_running(self, monkeypatch,
                                                         tmp_path):
        """lbm/mascot hangs on one slot and times out at 4 s, while the
        other slot runs exchange2/mascot (1.5 s) and then exchange2/phast
        (3 s, so in flight at the timeout): only the hung slot is
        killed, and exchange2/phast is neither charged nor re-run."""
        grid = [_cell("exchange2"), _cell("lbm"),
                _cell("exchange2", "phast")]
        clean = execute_cells([grid[2]])[0]
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            "hang=exchange2/mascot@1.5;hang=lbm/mascot@30;"
            "hang=exchange2/phast@3")
        metrics = tmp_path / "m.jsonl"
        policy = ResiliencePolicy(cell_timeout=4.0, fail_fast=False)
        results = execute_cells(grid, jobs=2, policy=policy,
                                metrics=metrics)
        assert results[1].kind is FailureKind.TIMEOUT
        assert results[2].to_dict() == clean.to_dict()
        records = _records(metrics)
        assert records[("exchange2", "phast")]["status"] == "ok"
        assert (records[("exchange2", "phast")]["worker"]
                == records[("exchange2", "mascot")]["worker"])


class TestDegradedSerial:
    def test_slot_losses_are_charged_without_degrading(self, monkeypatch):
        """Two persistent crashers: each crash is charged to its own cell
        and its slot respawned, and the innocents compute on the pool."""
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "crash=lbm/phast;crash=lbm/mascot")
        results = execute_cells(GRID, jobs=2,
                                policy=ResiliencePolicy(fail_fast=False))
        for i in (1, 2):
            assert results[i].kind is FailureKind.WORKER_LOST
        for i in (0, 3):
            assert (results[i].to_dict()
                    == execute_cells([GRID[i]])[0].to_dict())

    def test_no_respawn_fails_the_queue_until_rerun(
            self, monkeypatch, tmp_path):
        """Both slots' workers die and neither can be respawned: the
        queued cell fails ``worker-lost`` with no slot to run it, no
        cell runs inline, and a rerun on the cache computes exactly the
        three failed cells and serves the cached one."""
        from repro.experiments.backends import LocalPoolBackend
        cache = tmp_path / "cache"
        execute_cells([GRID[3]], cache=cache)  # perlbench1/mascot settled
        real = LocalPoolBackend._spawn
        spawned = []

        def spawn_twice(self, index):
            if len(spawned) == 2:
                return None  # this slot cannot start
            spawned.append(index)
            return real(self, index)

        monkeypatch.setattr(LocalPoolBackend, "_spawn", spawn_twice)
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "crash=exchange2/mascot;crash=lbm/mascot")
        metrics = tmp_path / "m.jsonl"
        results = execute_cells(GRID, jobs=2, cache=cache, metrics=metrics,
                                policy=ResiliencePolicy(fail_fast=False))
        for i in (0, 1, 2):
            assert results[i].kind is FailureKind.WORKER_LOST
        assert "no live slot" in results[2].message
        records = _records(metrics)
        assert records[("lbm", "phast")]["worker"] is None
        assert records[("perlbench1", "mascot")]["source"] == "cache"

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        recomputed = []
        compute = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: recomputed.append(spec)
                            or compute(spec))
        rerun = execute_cells(GRID, cache=cache)
        assert recomputed == GRID[:3]
        for got, cell in zip(rerun, GRID):
            assert got.to_dict() == execute_cells([cell])[0].to_dict()


class TestInlineDowngrade:
    def test_inline_crash_becomes_error(self, monkeypatch):
        """jobs=1 runs cells in the supervisor process: an injected crash
        must not SIGKILL the test process."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash=lbm/phast")
        results = execute_cells(GRID, jobs=1,
                                policy=ResiliencePolicy(fail_fast=False))
        assert isinstance(results[2], CellFailure)
        assert results[2].kind is FailureKind.ERROR

    def test_inline_hang_becomes_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang=lbm/phast")
        results = execute_cells(GRID, jobs=1,
                                policy=ResiliencePolicy(fail_fast=False))
        assert isinstance(results[2], CellFailure)
        assert results[2].kind is FailureKind.ERROR


class TestResolveCacheWritability:
    def test_unwritable_cache_warns_and_degrades_to_read_only(self,
                                                              tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning, match="read-only"):
            store = parallel.resolve_cache(blocker / "sub")
        assert isinstance(store, ResultCache)
        assert store.read_only

    def test_unwritable_cache_run_still_completes(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning):
            results = execute_cells([GRID[0]], cache=blocker / "sub")
        assert not isinstance(results[0], CellFailure)

    def test_read_only_cache_serves_hits_and_skips_stores(self, tmp_path,
                                                          monkeypatch):
        """A fully warm cache in an unwritable directory (shared or
        CI-mounted artifacts) must still perform zero simulations."""
        first = execute_cells([GRID[0]], cache=ResultCache(tmp_path / "c"))

        monkeypatch.setattr(ResultCache, "probe_writable",
                            lambda self: "read-only file system")
        monkeypatch.setattr(
            parallel, "compute_cell",
            lambda spec: pytest.fail("recomputed despite warm cache"))
        store = ResultCache(tmp_path / "c")
        with pytest.warns(RuntimeWarning, match="read-only"):
            results = execute_cells([GRID[0]], cache=store)
        assert results[0].to_dict() == first[0].to_dict()
        assert store.read_only
        assert store.hits == 1 and store.stores == 0


class TestGoldenAcceptance:
    """The issue's acceptance scenario, end to end.

    One run with an injected worker crash, one timing-out cell and one
    pre-corrupted cache entry completes under --keep-going, marking
    exactly the affected cells as CellFailure; rerunning the grid on the
    same cache recomputes only those cells and serves every previously
    completed cell bit-identically.
    """

    def test_crash_timeout_corruption_then_rerun(self, tmp_path,
                                                 monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        grid = [
            _cell("exchange2", "mascot"), _cell("exchange2", "phast"),
            _cell("lbm", "mascot"), _cell("lbm", "phast"),
            _cell("perlbench1", "mascot"), _cell("perlbench1", "phast"),
        ]

        # Pre-corrupt the cache entry for exchange2/mascot: recompute and
        # quarantine, never a crash or a wrong result.
        pristine = execute_cells([grid[0]], cache=cache)
        corrupt_path = cache.path_for(cell_key(grid[0]))
        corrupt_path.write_text('{"v": 2, "key": "wrong", "result": 1}')

        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            "crash=lbm/phast;hang=perlbench1/mascot@30")
        policy = ResiliencePolicy(cell_timeout=2.5, fail_fast=False)
        results = execute_cells(grid, jobs=2, cache=cache, policy=policy)

        failed = {i for i, r in enumerate(results)
                  if isinstance(r, CellFailure)}
        assert failed == {3, 4}
        assert results[3].kind is FailureKind.WORKER_LOST
        assert results[4].kind is FailureKind.TIMEOUT
        # The corrupted entry was quarantined and its cell recomputed
        # bit-identically.
        assert cache.quarantined == 1
        assert (cache.quarantine_dir / corrupt_path.name).exists()
        assert results[0].to_dict() == pristine[0].to_dict()

        # The rerun: only the two failed cells are re-dispatched.  With
        # the faults cleared they now succeed; every settled cell is a
        # verified cache hit, served without recomputation.
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        recomputed = []
        real = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: recomputed.append(spec)
                            or real(spec))
        rerun = execute_cells(grid, jobs=1,
                              cache=ResultCache(tmp_path / "cache"))
        assert {grid.index(s) for s in recomputed} == {3, 4}
        assert all(not isinstance(r, CellFailure) for r in rerun)

        # Bit-identical to a pristine serial grid, cached and re-run
        # cells alike.
        clean = execute_cells(grid, jobs=1)
        for got, want in zip(rerun, clean):
            assert got.to_dict() == want.to_dict()


class TestFailureRecords:
    def test_cell_label_names_mode_benchmark_and_predictor(self):
        assert cell_label(_cell("lbm", "phast")) == "accuracy:lbm/phast"

    def test_describe_carries_kind_and_message(self):
        failure = CellFailure(_cell("lbm"), FailureKind.TIMEOUT, "120 s")
        assert failure.describe() == "accuracy:lbm/mascot: timeout: 120 s"

    def test_timeout_is_a_cell_execution_error(self):
        assert issubclass(CellTimeoutError, CellExecutionError)

    def test_inline_execution_nests_and_restores(self):
        from repro.experiments import resilience

        assert not resilience._INLINE
        with inline_execution():
            with inline_execution():
                assert resilience._INLINE
            assert resilience._INLINE
        assert not resilience._INLINE
