"""Failure-path tests for the fault-tolerant suite engine.

Faults are injected through the ``REPRO_FAULT_INJECT`` environment
variable (inherited by worker processes, where monkeypatching cannot
reach): worker exceptions, SIGKILL crashes (→ ``BrokenProcessPool``,
charged to the crashing slot's cell) and hangs (→ timeout enforcement).
The golden test at the end is the acceptance scenario: crash + timeout +
corrupted cache entry in one run, then a resume that re-runs exactly the
failed cells with bit-identical carried results.
"""

import dataclasses
import json
import warnings
from collections import Counter

import pytest

from repro.experiments import parallel
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.resilience import (
    CellFailure,
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
    backoff_delay,
    classify_failure,
    deterministic_jitter,
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
        policy = ResiliencePolicy()
        assert policy.fail_fast and policy.retries == 0
        assert policy.cell_timeout is None

    @pytest.mark.parametrize("bad", [
        {"retries": -1}, {"cell_timeout": 0}, {"cell_timeout": -1.0},
        {"max_pool_rebuilds": -1},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ResiliencePolicy(**bad)

    def test_jitter_is_deterministic_and_bounded(self):
        for attempt in (1, 2, 5):
            a = deterministic_jitter("somekey", attempt)
            assert a == deterministic_jitter("somekey", attempt)
            assert 0.0 <= a < 1.0
        assert (deterministic_jitter("key-a", 1)
                != deterministic_jitter("key-b", 1))
        assert (deterministic_jitter("key-a", 1)
                != deterministic_jitter("key-a", 2))

    def test_backoff_grows_and_caps(self):
        policy = ResiliencePolicy(retries=10, backoff_base=1.0,
                                  backoff_factor=2.0, backoff_max=4.0,
                                  jitter=0.0)
        delays = [backoff_delay(policy, "k", a) for a in (1, 2, 3, 4, 5)]
        assert delays == [1.0, 2.0, 4.0, 4.0, 4.0]

    def test_backoff_jitter_within_fraction(self):
        policy = ResiliencePolicy(retries=1, backoff_base=2.0, jitter=0.5)
        delay = backoff_delay(policy, "k", 1)
        assert 2.0 <= delay <= 3.0
        assert delay == backoff_delay(policy, "k", 1)  # reproducible


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
        assert not clauses[0].once
        assert clauses[1].arg == "2.5"

    def test_once_requires_latch(self, tmp_path):
        clause, = parse_fault_spec(f"crash-once=lbm/phast@{tmp_path}/latch")
        assert clause.once and clause.kind == "crash"
        with pytest.raises(ValueError):
            parse_fault_spec("crash-once=lbm/phast")

    @pytest.mark.parametrize("bad", [
        "explode=lbm/phast", "error=lbm", "error", "error=/phast",
    ])
    def test_rejects_bad_clauses(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestClassify:
    def test_kinds(self):
        from concurrent.futures.process import BrokenProcessPool
        assert classify_failure(RuntimeError("x")) is FailureKind.ERROR
        assert (classify_failure(CellTimeoutError("x"))
                is FailureKind.TIMEOUT)
        assert (classify_failure(BrokenProcessPool("x"))
                is FailureKind.WORKER_LOST)


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
        assert failure.attempts == 1
        assert "injected fault" in failure.message

    def test_retry_recovers_from_transient_error(self, monkeypatch,
                                                 tmp_path):
        latch = tmp_path / "latch"
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"error-once=lbm/phast@{latch}")
        policy = ResiliencePolicy(retries=1, backoff_base=0.01)
        results = execute_cells(GRID, policy=policy)
        assert all(not isinstance(r, CellFailure) for r in results)
        assert latch.exists()
        clean = execute_cells([GRID[2]])
        assert results[2].to_dict() == clean[0].to_dict()


def _dispatches(journal):
    """Dispatch records per cell key in the journal's last run."""
    counts = Counter()
    text = journal.path_for(journal.last_run_id).read_text()
    for line in text.splitlines():
        record = json.loads(line)
        if record.get("event") == "dispatch":
            counts[record["key"]] += 1
    return counts


def _records(path):
    """Per-cell metrics records, by (benchmark, predictor)."""
    return {(r["benchmark"], r["predictor"]): r
            for r in map(json.loads, path.read_text().splitlines())
            if r["event"] == "cell"}


class TestWorkerCrash:
    """A slot runs one cell, so a dead worker names its cell: that cell
    is charged an attempt, its slot is respawned, and the other slots'
    cells never notice."""

    def test_crash_once_recovers_without_losing_innocents(self,
                                                          monkeypatch,
                                                          tmp_path):
        """The crash costs the culprit one attempt; the retry succeeds
        and every other cell ran exactly once."""
        latch = tmp_path / "latch"
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"crash-once=lbm/phast@{latch}")
        journal = RunJournal(tmp_path / "journals")
        policy = ResiliencePolicy(retries=1, backoff_base=0.01,
                                  fail_fast=False)
        results = execute_cells(GRID, jobs=2, policy=policy,
                                journal=journal)
        assert all(not isinstance(r, CellFailure) for r in results)
        assert latch.exists()
        clean = [execute_cells([cell])[0] for cell in GRID]
        for got, want in zip(results, clean):
            assert got.to_dict() == want.to_dict()
        dispatches = _dispatches(journal)
        assert [dispatches[cell_key(cell)] for cell in GRID] == [1, 1, 2, 1]

    def test_persistent_crash_is_attributed_to_the_culprit(self,
                                                           monkeypatch):
        """crash-every-time: the culprit is charged its one attempt and
        the innocents all complete."""
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash=lbm/phast")
        results = execute_cells(GRID, jobs=2,
                                policy=ResiliencePolicy(fail_fast=False))
        assert isinstance(results[2], CellFailure)
        assert results[2].kind is FailureKind.WORKER_LOST
        assert results[2].attempts == 1
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
        journal = RunJournal(tmp_path / "journals")
        metrics = tmp_path / "m.jsonl"
        results = execute_cells(GRID, jobs=2, journal=journal,
                                metrics=metrics,
                                policy=ResiliencePolicy(fail_fast=False))
        assert results[1].kind is FailureKind.WORKER_LOST
        assert results[0].to_dict() == clean.to_dict()
        assert _dispatches(journal)[cell_key(GRID[0])] == 1
        records = _records(metrics)
        assert records[("exchange2", "mascot")]["attempts"] == 1
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

    def test_transient_hang_recovers_with_retry(self, monkeypatch,
                                                tmp_path):
        latch = tmp_path / "latch"
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"hang-once=lbm/phast@{latch}")
        policy = ResiliencePolicy(cell_timeout=2.0, retries=1,
                                  backoff_base=0.01, fail_fast=False)
        results = execute_cells(GRID, jobs=2, policy=policy)
        assert all(not isinstance(r, CellFailure) for r in results)

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
        journal = RunJournal(tmp_path / "journals")
        metrics = tmp_path / "m.jsonl"
        policy = ResiliencePolicy(cell_timeout=4.0, fail_fast=False)
        results = execute_cells(grid, jobs=2, policy=policy,
                                journal=journal, metrics=metrics)
        assert results[1].kind is FailureKind.TIMEOUT
        assert results[2].to_dict() == clean.to_dict()
        assert _dispatches(journal)[cell_key(grid[2])] == 1
        records = _records(metrics)
        assert records[("exchange2", "phast")]["attempts"] == 1
        assert (records[("exchange2", "phast")]["worker"]
                == records[("exchange2", "mascot")]["worker"])


class TestDegradedSerial:
    def test_slot_losses_are_charged_without_degrading(self, monkeypatch):
        """Two persistent crashers, zero tolerated rebuilds: each crash
        is charged to its own cell and its slot respawned, which is not a
        capacity loss, so the run never degrades."""
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "crash=lbm/phast;crash=lbm/mascot")
        policy = ResiliencePolicy(fail_fast=False, max_pool_rebuilds=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = execute_cells(GRID, jobs=2, policy=policy)
        assert not [w for w in caught if "degrading" in str(w.message)]
        for i in (1, 2):
            assert results[i].kind is FailureKind.WORKER_LOST
            assert results[i].attempts == 1
        for i in (0, 3):
            assert (results[i].to_dict()
                    == execute_cells([GRID[i]])[0].to_dict())

    def test_repeated_pool_loss_degrades_with_warning(self, monkeypatch,
                                                      tmp_path):
        """Both slots' workers die and neither can be respawned: every
        rebuild finds no capacity, so the run degrades to inline
        execution and finishes the remaining cells there."""
        from repro.experiments.backends import (
            BackendBrokenError,
            LocalPoolBackend,
        )
        real = LocalPoolBackend._spawn
        spawned = []

        def spawn_twice(self, index):
            if len(spawned) == 2:
                raise BackendBrokenError("injected: cannot respawn")
            spawned.append(index)
            return real(self, index)

        monkeypatch.setattr(LocalPoolBackend, "_spawn", spawn_twice)
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "crash=exchange2/mascot;crash=lbm/mascot")
        metrics = tmp_path / "m.jsonl"
        with pytest.warns(RuntimeWarning, match="degrading to"):
            results = execute_cells(GRID, jobs=2, metrics=metrics,
                                    policy=ResiliencePolicy(fail_fast=False))
        for i in (0, 1):
            assert results[i].kind is FailureKind.WORKER_LOST
        for i in (2, 3):
            assert (results[i].to_dict()
                    == execute_cells([GRID[i]])[0].to_dict())
        records = _records(metrics)
        assert records[("lbm", "phast")]["worker"] == "inline"
        assert records[("perlbench1", "mascot")]["worker"] == "inline"


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


class TestResolveJournal:
    def test_disabled_forms(self):
        assert parallel.resolve_journal(None) is None
        assert parallel.resolve_journal(False) is None

    def test_path_and_instance(self, tmp_path):
        journal = parallel.resolve_journal(tmp_path / "j")
        assert isinstance(journal, RunJournal)
        assert journal.directory == tmp_path / "j"
        assert parallel.resolve_journal(journal) is journal

    def test_unwritable_journal_warns_and_disables(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.warns(RuntimeWarning, match="journal disabled"):
            assert parallel.resolve_journal(blocker / "sub") is None


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


class TestJournalledExecution:
    def test_journal_records_and_resume_skips(self, tmp_path, monkeypatch):
        journal = RunJournal(tmp_path / "journals")
        first = execute_cells(GRID, journal=journal)
        run_id = journal.last_run_id
        assert run_id is not None

        # Resume must restore every completed cell without recomputing.
        monkeypatch.setattr(
            parallel, "compute_cell",
            lambda spec: pytest.fail(f"recomputed {spec} despite resume"))
        resumed = execute_cells(GRID, journal=journal, resume=run_id)
        for got, want in zip(resumed, first):
            assert got.to_dict() == want.to_dict()
        # The resumed run journals its carried results under a new id.
        assert journal.last_run_id != run_id
        state = journal.load(journal.last_run_id)
        assert len(state.completed) == len(GRID)

    def test_resume_honours_journal_dir_when_journaling_off(self, tmp_path,
                                                            monkeypatch):
        """When journaling resolves off (here: unwritable directory), the
        resume loader must still read from the directory the journal spec
        names, not the default."""
        journal = RunJournal(tmp_path / "journals")
        first = execute_cells(GRID, journal=journal)
        run_id = journal.last_run_id

        monkeypatch.setattr(RunJournal, "probe_writable",
                            lambda self: "read-only file system")
        monkeypatch.setattr(
            parallel, "compute_cell",
            lambda spec: pytest.fail("recomputed despite resume"))
        with pytest.warns(RuntimeWarning, match="journal disabled"):
            resumed = execute_cells(GRID, journal=tmp_path / "journals",
                                    resume=run_id)
        for got, want in zip(resumed, first):
            assert got.to_dict() == want.to_dict()


class TestGoldenAcceptance:
    """The issue's acceptance scenario, end to end.

    One run with an injected worker crash, one timing-out cell and one
    pre-corrupted cache entry completes under --keep-going, marking
    exactly the affected cells as CellFailure; a subsequent --resume
    re-runs only those cells and every previously completed cell is
    restored bit-identically.
    """

    def test_crash_timeout_corruption_then_resume(self, tmp_path,
                                                  monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        journal = RunJournal(tmp_path / "journals")
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
        results = execute_cells(grid, jobs=2, cache=cache, policy=policy,
                                journal=journal)
        first_run = journal.last_run_id

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

        # --resume: only the two failed cells are re-dispatched.  With the
        # faults cleared they now succeed; carried cells are restored from
        # the journal bit-identically without recomputation (cache off to
        # prove the journal alone suffices).
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        recomputed = []
        real = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: recomputed.append(spec)
                            or real(spec))
        resumed = execute_cells(grid, jobs=1, cache=None, journal=journal,
                                resume=first_run)
        assert {grid.index(s) for s in recomputed} == {3, 4}
        assert all(not isinstance(r, CellFailure) for r in resumed)

        # Bit-identical to a pristine serial grid, carried and re-run
        # cells alike.
        clean = execute_cells(grid, jobs=1)
        for got, want in zip(resumed, clean):
            assert got.to_dict() == want.to_dict()
