"""Fault-tolerance policy for suite execution: timeouts, failures, faults.

The parallel engine (:mod:`repro.experiments.parallel`) runs large
``(benchmark, predictor, config)`` grids; a single hung cell, OOM-killed
worker or poisoned input must not abort hours of finished work.  This
module holds the *policy* half of that contract:

* :class:`ResiliencePolicy` — per-cell wall-clock timeout, and whether
  the first failed cell aborts the run or becomes a placeholder.
* :class:`CellFailure` — the positional placeholder merged into a grid for
  a failed cell, so callers can render partial grids.
* **Fault injection** — :func:`maybe_inject_fault` lets tests (and the CI
  fault-injection job) inject worker errors, SIGKILL crashes and hangs into
  real worker processes via the ``REPRO_FAULT_INJECT`` environment variable,
  which crosses the process boundary where monkeypatching cannot.

Failure model
-------------
Each cell is dispatched once.  A failure is charged to the cell that
ran, never retried within the run: a failed cell is not cached, so
rerunning the command on the same cache computes exactly the failed
cells.  Failures are classified into three kinds:

``error``
    The cell raised an exception.
``timeout``
    The cell exceeded ``cell_timeout`` seconds of wall-clock time.  Its
    worker is killed (a hung worker cannot be cancelled) and its slot
    respawned; cells on other slots run on.
``worker-lost``
    A worker process died (``BrokenProcessPool``).  A slot runs one cell
    at a time, so the cell it was running is the culprit with certainty:
    that cell alone is charged, and the slot is respawned.  A slot that
    cannot be respawned is dropped; once no live slot remains, every
    queued cell fails ``worker-lost`` too.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

__all__ = [
    "FAULT_INJECT_ENV",
    "CellExecutionError",
    "CellFailure",
    "CellTimeoutError",
    "FailureKind",
    "FaultClause",
    "ResiliencePolicy",
    "cell_label",
    "inline_execution",
    "maybe_inject_fault",
    "parse_fault_spec",
]

#: Environment variable carrying fault-injection clauses (see
#: :func:`parse_fault_spec`).  Inherited by worker processes, which is the
#: whole point: it reaches code a parent-process monkeypatch cannot.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Sleep length of an injected hang without an explicit duration; far past
#: any test timeout, and the hung worker is killed once the timeout fires.
_HANG_SECONDS = 30.0


class FailureKind(Enum):
    """Classification of a cell failure (see the module failure model)."""

    ERROR = "error"
    TIMEOUT = "timeout"
    #: The worker process running the cell died; charged to that cell
    #: alone, since a slot runs one cell at a time.
    WORKER_LOST = "worker-lost"


class CellExecutionError(RuntimeError):
    """A cell failed under a fail-fast policy."""


class CellTimeoutError(CellExecutionError):
    """A cell exceeded its wall-clock timeout under a fail-fast policy."""


@dataclass(frozen=True)
class CellFailure:
    """Positional placeholder for a failed cell.

    Grids keep their shape: :func:`~repro.experiments.parallel.execute_cells`
    returns one of these at the failed cell's position so ``suite.py``,
    ``figures.py`` and ``sweeps.py`` can mark the cell instead of crashing.
    """

    #: The failed cell's spec (a CellSpec; typed loosely to avoid an
    #: import cycle with :mod:`repro.experiments.parallel`).
    spec: object
    kind: FailureKind
    message: str = ""

    def describe(self) -> str:
        return f"{cell_label(self.spec)}: {self.kind.value}: {self.message}"


def cell_label(spec) -> str:
    """Short human-readable identity of a cell for messages and logs."""
    return f"{spec.mode}:{spec.benchmark}/{spec.predictor.name}"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Timeout and failure policy for one ``execute_cells`` run.

    The default policy reproduces the historical engine behaviour exactly:
    no timeout, first failure aborts the run (fail fast).
    """

    #: Per-cell wall-clock timeout in seconds; None disables.  Enforced
    #: via future deadlines, so it requires (and forces) the pool path.
    cell_timeout: Optional[float] = None
    #: True: first failed cell raises.  False (--keep-going): failed
    #: cells become CellFailure placeholders and the run completes.
    fail_fast: bool = True

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")


#: The compatibility default: serial semantics identical to the pre-
#: resilience engine (exceptions propagate).
DEFAULT_POLICY = ResiliencePolicy()


# ------------------------------------------------------------ fault injection

#: True while cells run inline in the supervising process (jobs == 1).
#: Destructive injected faults (crash, hang) are
#: downgraded to plain errors there so they cannot kill or stall the
#: supervisor itself.
_INLINE = False


@contextmanager
def inline_execution():
    """Mark the dynamic extent of inline (in-supervisor) cell execution."""
    global _INLINE
    previous = _INLINE
    _INLINE = True
    try:
        yield
    finally:
        _INLINE = previous


@dataclass(frozen=True)
class FaultClause:
    """One parsed ``REPRO_FAULT_INJECT`` clause."""

    kind: str          # "error" | "crash" | "hang"
    benchmark: str
    predictor: str
    arg: Optional[str]  # seconds (hang)


#: Fault kinds, fired by :func:`maybe_inject_fault` inside whichever
#: process runs the cell.
_FAULT_KINDS = ("error", "crash", "hang")


def parse_fault_spec(text: str) -> List[FaultClause]:
    """Parse the fault-injection spec grammar.

    ``;``-separated clauses of the form ``kind=benchmark/predictor[@arg]``
    where ``kind`` is ``error``, ``crash`` or ``hang``.  For ``hang``,
    ``arg`` is an optional sleep duration in seconds.  ``""``, ``"0"`` and ``"1"`` mean "no clauses" so the variable
    doubles as a plain on/off switch for CI jobs.
    """
    clauses: List[FaultClause] = []
    if not text or text in ("0", "1"):
        return clauses
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, target = chunk.partition("=")
        if not target:
            raise ValueError(f"bad fault clause {chunk!r}: missing '='")
        if kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {chunk!r}")
        target, _, arg = target.partition("@")
        benchmark, _, predictor = target.partition("/")
        if not benchmark or not predictor:
            raise ValueError(
                f"bad fault target {target!r}: want benchmark/predictor")
        clauses.append(FaultClause(kind=kind, benchmark=benchmark,
                                   predictor=predictor, arg=arg or None))
    return clauses


def maybe_inject_fault(spec) -> None:
    """Fire any configured fault matching ``spec``; no-op when unset.

    Called at the top of ``compute_cell`` in whichever process runs the
    cell.  ``crash`` SIGKILLs the worker (producing a BrokenProcessPool in
    the supervisor); ``hang`` sleeps past any reasonable timeout; ``error``
    raises.  Inline (in-supervisor) execution downgrades crash/hang to
    errors so injected faults can never kill the supervising process.
    """
    text = os.environ.get(FAULT_INJECT_ENV, "")
    if not text or text in ("0", "1"):
        return
    for clause in parse_fault_spec(text):
        if (clause.benchmark != spec.benchmark
                or clause.predictor != spec.predictor.name):
            continue
        _fire(clause)


def _fire(clause: FaultClause) -> None:
    label = f"{clause.benchmark}/{clause.predictor}"
    if clause.kind == "error":
        raise RuntimeError(f"injected fault: error in {label}")
    if clause.kind == "crash":
        if _INLINE:
            raise RuntimeError(
                f"injected fault: crash in {label} (downgraded inline)")
        os.kill(os.getpid(), signal.SIGKILL)
    if clause.kind == "hang":
        if _INLINE:
            raise RuntimeError(
                f"injected fault: hang in {label} (downgraded inline)")
        time.sleep(float(clause.arg) if clause.arg else _HANG_SECONDS)
