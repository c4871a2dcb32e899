"""Tests for the local executor backend and crash recovery over it.

``LocalPoolBackend`` runs each cell on one of ``jobs`` single-process
slots.  The golden tests kill a slot's worker process mid-grid, and
separately SIGKILL the whole coordinator (its workers included) mid-grid
and resume from its journal: both must produce results bit-identical to
an uninterrupted serial run.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.backends import LocalPoolBackend
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.resilience import ResiliencePolicy
from repro.experiments.result_cache import encode_result
from repro.experiments.runner import default_cache

SRC = Path(repro.__file__).resolve().parents[1]

GOLDEN_N = 60_000  # about a second per cell: the kills land mid-grid


def _cell(benchmark, predictor="mascot"):
    return CellSpec(mode="accuracy", benchmark=benchmark, num_uops=GOLDEN_N,
                    predictor=predictor)


def _encoded(results):
    return [encode_result(r) for r in results]


def _policy(**kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("jitter", 0.0)
    return ResiliencePolicy(**kwargs)


class TestLocalPoolBackend:
    def test_flags(self):
        backend = LocalPoolBackend(1)
        try:
            assert backend.workers == 1
            assert [slot.label for slot in backend.slots()] == ["local:0"]
        finally:
            backend.close()
        assert backend.workers == 0


# ------------------------------------------------------------ golden tests

GOLDEN_GRID = [
    _cell("exchange2"),
    _cell("lbm"),
    _cell("lbm", "phast"),
    _cell("perlbench1"),
    _cell("mcf"),
    _cell("xalancbmk"),
]


@pytest.fixture(scope="module")
def serial_golden():
    return execute_cells(GOLDEN_GRID)


class TestGoldenCrashRecovery:
    def test_worker_sigkill_mid_grid_bit_identical(self, serial_golden):
        killed = []
        done = threading.Event()

        def kill_one_slot():
            """SIGKILL the first slot worker seen, once it is computing."""
            while not done.wait(0.02):
                children = multiprocessing.active_children()
                if children:
                    time.sleep(0.5)
                    if children[0].is_alive():
                        children[0].kill()
                        killed.append(children[0].pid)
                    return

        # Slot workers fork from this process: clear the trace memo so
        # they generate their traces and a cell outlasts the kill delay.
        default_cache().clear()
        killer = threading.Thread(target=kill_one_slot)
        killer.start()
        try:
            results = execute_cells(GOLDEN_GRID, jobs=2,
                                    policy=_policy(retries=3))
        finally:
            done.set()
            killer.join()
        assert killed, "no slot worker was alive to kill"
        assert _encoded(results) == _encoded(serial_golden)

    def test_coordinator_sigkill_then_resume_bit_identical(
            self, serial_golden, tmp_path):
        journal_dir = tmp_path / "journals"
        driver = tmp_path / "driver.py"
        driver.write_text(f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.journal import RunJournal
from repro.experiments.resilience import ResiliencePolicy

grid = [CellSpec(mode="accuracy", benchmark=b, num_uops={GOLDEN_N},
                 predictor=p) for b, p in [
    ("exchange2", "mascot"), ("lbm", "mascot"), ("lbm", "phast"),
    ("perlbench1", "mascot"), ("mcf", "mascot"), ("xalancbmk", "mascot")]]
execute_cells(grid, jobs=2, journal=RunJournal({str(journal_dir)!r}),
              policy=ResiliencePolicy(retries=2, backoff_base=0.01,
                                      jitter=0.0))
""")
        # Its own session, so the kill takes the slot workers down with
        # the coordinator, as a lost host would.
        coordinator = subprocess.Popen(
            [sys.executable, str(driver)], env=dict(os.environ),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            # Wait until the journal shows real progress (>=1 cell ok) but
            # the run is still incomplete, then SIGKILL mid-grid.
            deadline = time.monotonic() + 120.0
            run_file = None
            while time.monotonic() < deadline:
                files = list(journal_dir.glob("*.jsonl"))
                if files:
                    run_file = files[0]
                    text = run_file.read_text()
                    if '"event": "ok"' in text:
                        break
                if coordinator.poll() is not None:
                    break
                time.sleep(0.05)
            assert run_file is not None, "coordinator never journaled"
            killed_mid_grid = coordinator.poll() is None
            if killed_mid_grid:
                os.killpg(coordinator.pid, signal.SIGKILL)
            coordinator.wait(timeout=30)
        finally:
            if coordinator.poll() is None:
                os.killpg(coordinator.pid, signal.SIGKILL)
                coordinator.wait(timeout=10)
        assert killed_mid_grid, "run finished before the kill landed"

        # The journal tail may be torn: resume must recompute only what
        # never completed and merge bit-identically.
        run_id = run_file.name[:-len(".jsonl")]
        journal = RunJournal(journal_dir)
        carried = len(journal.load(run_id).completed)
        assert carried < len(GOLDEN_GRID)  # the kill landed mid-grid
        resumed = execute_cells(GOLDEN_GRID, jobs=2, journal=journal,
                                resume=run_id, policy=_policy())
        assert _encoded(resumed) == _encoded(serial_golden)
        # The resumed run carried every completed cell from the journal.
        state = journal.load(journal.last_run_id)
        assert len(state.completed) == len(GOLDEN_GRID)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
