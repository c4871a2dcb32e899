"""Executor backend: where supervised suite cells run.

The supervisor loop in :mod:`repro.experiments.parallel` schedules cells,
enforces deadlines and classifies failures, but it does not own the
processes that run them.  That is :class:`LocalPoolBackend`: ``workers``
slots, each a ``ProcessPoolExecutor`` with one process.  A slot runs one
cell at a time and keeps its process's trace memo between cells, so the
supervisor can send it every cell of the traces it already holds, and a
lost or hung worker identifies its cell with certainty: a crash fails
exactly that cell and leaves the other slots' cells running.
A worker exits as soon as its coordinator dies, even by SIGKILL, so a
lost coordinator never leaks idle workers.

Cells run on this host only.  A grid is spread over several hosts by
giving each its own ``--benchmarks`` subset and ``--cache-dir``, then
merging the cache directories (docs/resilience.md, "Splitting a grid
across hosts").
"""

from __future__ import annotations

import multiprocessing.connection
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Set

from .resilience import CellExecutionError

__all__ = ["LocalPoolBackend", "WorkerLostError"]


class WorkerLostError(CellExecutionError):
    """The process running a cell died mid-flight.

    ``original`` carries the underlying exception (the local pool's
    ``BrokenProcessPool``), so fail-fast re-raises exactly what the
    historical engine raised.
    """

    def __init__(self, message: str,
                 original: Optional[BaseException] = None):
        super().__init__(message)
        self.original = original


def _exit_with_parent() -> None:
    """Slot-worker initializer: exit when the coordinator process dies.

    A SIGKILLed coordinator cannot shut its pools down, and its workers,
    reparented to init, would wait on their call queues forever.  A
    daemon thread waits on the parent's sentinel instead and ends the
    worker the moment the parent is gone.
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent",
                     daemon=True).start()


class _Slot:
    """One local slot: a single-process pool running one cell at a time."""

    __slots__ = ("index", "pool", "future")

    def __init__(self, index: int):
        self.index = index
        self.pool = ProcessPoolExecutor(max_workers=1,
                                        initializer=_exit_with_parent)
        self.future = None

    @property
    def label(self) -> str:
        return f"local:{self.index}"

    def kill(self) -> None:
        """Kill the worker, then wait for the pool's manager thread: a
        slot forked while a dead pool's thread still runs can stall."""
        processes = getattr(self.pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 — already-dead worker
                pass
        self.pool.shutdown(wait=True, cancel_futures=True)


class LocalPoolBackend:
    """Where cells run: ``workers`` local slots, each its own one-process
    pool.  The supervisor drives this interface.

    ``slots`` lists the live slots as opaque hashable tokens; a token is
    replaced whenever its worker's memory is lost (a respawned process),
    so the supervisor can tell which traces a slot still holds.
    ``submit`` hands one cell to an idle slot and returns an opaque
    handle (the slot's future); ``wait`` blocks up to ``timeout`` for
    handles to finish; ``result`` returns the cell's result or raises
    the failure.  ``BrokenProcessPool`` is translated to
    :class:`WorkerLostError` with the original exception attached, so
    the supervisor's fail-fast path re-raises exactly what the pool
    raised.  A slot whose worker died or was abandoned (timeout) is
    respawned at once as a fresh slot; one that cannot be respawned, or
    that fails to take a cell, is dropped for the rest of the run.
    """

    def __init__(self, workers: int):
        self._slots: List[Optional[_Slot]] = [
            self._spawn(index) for index in range(workers)]

    def _spawn(self, index: int) -> Optional[_Slot]:
        """A fresh slot at ``index``, or None when it cannot start."""
        try:
            return _Slot(index)
        except OSError:
            return None

    def _replace(self, slot: _Slot) -> None:
        """Kill ``slot``'s worker and put a fresh slot in its place."""
        slot.kill()
        self._slots[slot.index] = self._spawn(slot.index)

    def _owner(self, handle) -> Optional[_Slot]:
        return next((s for s in self.slots() if s.future is handle), None)

    def slots(self) -> List[_Slot]:
        """Tokens of the live slots, in a stable order."""
        return [slot for slot in self._slots if slot is not None]

    def submit(self, slot: _Slot, fn, spec):
        """Run ``fn(spec)`` on idle ``slot``; returns None, and drops the
        slot, when the slot cannot take it."""
        try:
            slot.future = slot.pool.submit(fn, spec)
        except (BrokenProcessPool, OSError):
            slot.kill()
            self._slots[slot.index] = None
            return None
        return slot.future

    def wait(self, timeout: float) -> Set[object]:
        busy = [slot.future for slot in self.slots()
                if slot.future is not None]
        if not busy:
            return set()
        return wait(busy, timeout=timeout, return_when=FIRST_COMPLETED)[0]

    def result(self, handle):
        slot = self._owner(handle)
        slot.future = None
        try:
            return handle.result()
        except BrokenProcessPool as error:
            self._replace(slot)
            raise WorkerLostError(
                f"worker process of {slot.label} died (BrokenProcessPool)",
                original=error) from error

    def forget(self, handle) -> None:
        """Abandon one in-flight handle (timeout) and the worker running
        it; never raises."""
        slot = self._owner(handle)
        if slot is not None:
            self._replace(slot)

    def close(self) -> None:
        for slot in self.slots():
            slot.kill()
        self._slots = [None] * len(self._slots)

    def describe(self, handle) -> str:
        """Short label of where a handle runs, for messages and metrics."""
        return self._owner(handle).label
