"""Executor backend: where supervised suite cells run.

The supervisor loop in :mod:`repro.experiments.parallel` schedules cells,
enforces deadlines and classifies failures, but it does not own the
processes that run them.  That is an :class:`ExecutorBackend`, and the
one implementation is :class:`LocalPoolBackend`: ``workers`` slots, each
a ``ProcessPoolExecutor`` with one process.  A slot runs one cell at a
time and keeps its process's trace memo between cells, so the supervisor
can send it every cell of the traces it already holds, and a lost or
hung worker identifies its cell with certainty: a crash costs exactly
one requeue of that cell and leaves the other slots' cells running.
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

__all__ = [
    "BackendBrokenError",
    "ExecutorBackend",
    "LocalPoolBackend",
    "WorkerLostError",
]


class BackendBrokenError(RuntimeError):
    """The execution substrate is unusable; the supervisor must rebuild."""


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


class ExecutorBackend:
    """Where cells run; the supervisor drives this interface.

    A backend is a set of *slots*, each able to run one cell at a time.
    ``slots`` lists the live ones as opaque hashable tokens; a token is
    replaced whenever its worker's memory is lost (a respawned process),
    so the supervisor can tell which traces a slot still holds.
    ``submit`` hands one cell to an idle slot and returns an opaque
    handle; ``wait`` blocks up to ``timeout`` for handles to finish;
    ``result`` returns the cell's result or raises the failure
    (:class:`WorkerLostError` or the cell's own exception).
    """

    @property
    def workers(self) -> int:
        """Current concurrent capacity (may shrink as workers die)."""
        return len(self.slots())

    def slots(self) -> List[object]:
        """Tokens of the live slots, in a stable order."""
        raise NotImplementedError

    def submit(self, slot, fn, spec):
        """Run ``fn(spec)`` on idle ``slot``; raises
        :class:`BackendBrokenError` (and drops the slot) when the slot
        cannot take it."""
        raise NotImplementedError

    def wait(self, timeout: float) -> Set[object]:
        raise NotImplementedError

    def result(self, handle):
        raise NotImplementedError

    def forget(self, handle) -> None:
        """Abandon one in-flight handle (timeout) and the worker running
        it; never raises."""
        raise NotImplementedError

    def rebuild(self) -> None:
        """Restore lost slots after total capacity loss; never raises."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def describe(self, handle) -> str:
        """Short label of where a handle runs, for messages and metrics."""
        raise NotImplementedError


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
        """Tear the pool down without waiting on a hung or dead worker."""
        processes = getattr(self.pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # noqa: BLE001 — already-dead worker
                pass
        self.pool.shutdown(wait=False, cancel_futures=True)


class LocalPoolBackend(ExecutorBackend):
    """``workers`` local slots, each its own one-process pool.

    Handles are the slots' futures.  ``BrokenProcessPool`` is translated
    to :class:`WorkerLostError` with the original exception attached, so
    the supervisor's fail-fast path re-raises exactly what the pool
    raised.  A slot whose worker died or was abandoned (timeout) is
    respawned at once as a fresh slot; one that cannot be respawned, or
    that fails to take a cell, stays lost until :meth:`rebuild`.
    """

    def __init__(self, workers: int):
        self._slots: List[Optional[_Slot]] = [None] * workers
        self.rebuild()

    def _spawn(self, index: int) -> _Slot:
        try:
            return _Slot(index)
        except OSError as error:
            raise BackendBrokenError(
                f"cannot start local slot {index}: {error}") from error

    def _replace(self, slot: _Slot) -> None:
        """Kill ``slot``'s worker and put a fresh slot in its place."""
        slot.kill()
        try:
            self._slots[slot.index] = self._spawn(slot.index)
        except BackendBrokenError:
            self._slots[slot.index] = None

    def _owner(self, handle) -> Optional[_Slot]:
        return next((s for s in self.slots() if s.future is handle), None)

    def slots(self) -> List[_Slot]:
        return [slot for slot in self._slots if slot is not None]

    def submit(self, slot: _Slot, fn, spec):
        try:
            slot.future = slot.pool.submit(fn, spec)
        except (BrokenProcessPool, OSError) as error:
            slot.kill()
            self._slots[slot.index] = None
            raise BackendBrokenError(str(error)) from error
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
        slot = self._owner(handle)
        if slot is not None:
            self._replace(slot)

    def rebuild(self) -> None:
        for index, slot in enumerate(self._slots):
            if slot is None:
                try:
                    self._slots[index] = self._spawn(index)
                except BackendBrokenError:
                    pass

    def close(self) -> None:
        for slot in self.slots():
            slot.kill()
        self._slots = [None] * len(self._slots)

    def describe(self, handle) -> str:
        return self._owner(handle).label
