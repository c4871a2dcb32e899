"""Tests for the local executor backend and crash recovery over it.

``LocalPoolBackend`` runs each cell on one of ``jobs`` single-process
slots.  The golden tests kill a slot's worker process mid-grid, and
separately SIGKILL the whole coordinator (its workers included) mid-grid
and rerun the grid on the cache it left: both must produce results
bit-identical to an uninterrupted serial run.  A coordinator killed
alone must not leave its slot workers running.
"""

import json
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


def _gone(pid):
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


class TestOrphanedSlots:
    def test_slot_workers_exit_when_coordinator_is_killed(self, tmp_path):
        """SIGKILL reaches only the coordinator, never its slots; the
        slot workers must notice and exit rather than wait forever."""
        driver = tmp_path / "coordinator.py"
        pids = tmp_path / "pids"
        driver.write_text(f"""
import os
import signal
import sys
sys.path.insert(0, {str(SRC)!r})
from repro.experiments.backends import LocalPoolBackend


def pid(_):
    return os.getpid()


backend = LocalPoolBackend(2)
handles = [backend.submit(slot, pid, None) for slot in backend.slots()]
with open({str(pids)!r}, "w") as out:
    print(*(backend.result(handle) for handle in handles), file=out)
os.kill(os.getpid(), signal.SIGKILL)
""")
        # No pipes: a leaked worker would hold them open.
        coordinator = subprocess.run(
            [sys.executable, str(driver)], env=dict(os.environ),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=60)
        assert coordinator.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 2
        try:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if all(_gone(pid) for pid in workers):
                    break
                time.sleep(0.1)
            alive = [pid for pid in workers if not _gone(pid)]
            assert not alive, f"slot workers outlived the coordinator: {alive}"
        finally:
            for pid in workers:
                if not _gone(pid):
                    os.kill(pid, signal.SIGKILL)


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

    def test_coordinator_sigkill_then_rerun_bit_identical(
            self, serial_golden, tmp_path):
        cache_dir = tmp_path / "cache"
        driver = tmp_path / "driver.py"
        driver.write_text(f"""
import sys
sys.path.insert(0, {str(SRC)!r})
from repro.experiments.parallel import CellSpec, execute_cells
from repro.experiments.resilience import ResiliencePolicy

grid = [CellSpec(mode="accuracy", benchmark=b, num_uops={GOLDEN_N},
                 predictor=p) for b, p in [
    ("exchange2", "mascot"), ("lbm", "mascot"), ("lbm", "phast"),
    ("perlbench1", "mascot"), ("mcf", "mascot"), ("xalancbmk", "mascot")]]
execute_cells(grid, jobs=2, cache={str(cache_dir)!r},
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
            # Wait until the cache shows real progress (>=1 settled cell)
            # but the run is still incomplete, then SIGKILL mid-grid.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if list(cache_dir.glob("*.json")):
                    break
                if coordinator.poll() is not None:
                    break
                time.sleep(0.05)
            killed_mid_grid = coordinator.poll() is None
            if killed_mid_grid:
                os.killpg(coordinator.pid, signal.SIGKILL)
            coordinator.wait(timeout=30)
        finally:
            if coordinator.poll() is None:
                os.killpg(coordinator.pid, signal.SIGKILL)
                coordinator.wait(timeout=10)
        assert killed_mid_grid, "run finished before the kill landed"
        settled = len(list(cache_dir.glob("*.json")))
        assert 1 <= settled < len(GOLDEN_GRID)  # the kill landed mid-grid

        # Rerunning the same grid on the same cache is the resume: every
        # settled cell is a verified hit, only the rest compute, and the
        # merge is bit-identical.
        metrics = tmp_path / "rerun.jsonl"
        rerun = execute_cells(GOLDEN_GRID, jobs=2, cache=cache_dir,
                              policy=_policy(), metrics=metrics)
        assert _encoded(rerun) == _encoded(serial_golden)
        sources = [record["source"] for record in
                   map(json.loads, metrics.read_text().splitlines())
                   if record["event"] == "cell"]
        assert sources.count("cache") == settled
        assert sources.count("computed") == len(GOLDEN_GRID) - settled

if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
