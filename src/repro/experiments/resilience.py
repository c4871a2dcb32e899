"""Fault-tolerance policy for suite execution: timeouts, retries, faults.

The parallel engine (:mod:`repro.experiments.parallel`) runs large
``(benchmark, predictor, config)`` grids; a single hung cell, OOM-killed
worker or poisoned input must not abort hours of finished work.  This
module holds the *policy* half of that contract:

* :class:`ResiliencePolicy` — per-cell wall-clock timeout, bounded retries
  with exponential backoff, and the knobs governing pool recovery.
* **Deterministic jitter** — backoff delays are spread by a jitter factor
  derived from the cell's content-address key (:func:`deterministic_jitter`),
  never from ``random`` or the clock, so a retry schedule is reproducible
  and lint-clean (see the det-* rules in :mod:`repro.lint.determinism`).
* :class:`CellFailure` — the positional placeholder merged into a grid for
  a cell that exhausted its retries, so callers can render partial grids.
* **Fault injection** — :func:`maybe_inject_fault` lets tests (and the CI
  fault-injection job) inject worker errors, SIGKILL crashes and hangs into
  real worker processes via the ``REPRO_FAULT_INJECT`` environment variable,
  which crosses the process boundary where monkeypatching cannot.

Failure model
-------------
Failures are classified into three kinds:

``error``
    The cell raised an exception.  Retried up to ``retries`` times with
    backoff; attributable to the cell with certainty.
``timeout``
    The cell exceeded ``cell_timeout`` seconds of wall-clock time.  Its
    worker is killed (a hung worker cannot be cancelled) and its slot
    respawned; cells on other slots run on.
``worker-lost``
    A worker process died (``BrokenProcessPool``).  A slot runs one cell
    at a time, so the cell it was running is the culprit with certainty:
    that cell alone is charged, and the slot is respawned.  Only losing
    every slot counts toward ``max_pool_rebuilds``; past that, the run
    degrades to inline serial execution with a warning.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import List, Optional

__all__ = [
    "FAULT_INJECT_ENV",
    "CellExecutionError",
    "CellFailure",
    "CellTimeoutError",
    "FailureKind",
    "FaultClause",
    "ResiliencePolicy",
    "backoff_delay",
    "cell_label",
    "classify_failure",
    "deterministic_jitter",
    "inline_execution",
    "maybe_inject_fault",
    "parse_fault_spec",
    "take_protocol_fault",
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
    #: The worker process or connection running the cell died; charged
    #: to that cell alone, since a slot runs one cell at a time.
    WORKER_LOST = "worker-lost"
    #: A remote worker stopped heartbeating past the lease deadline
    #: (wedged, partitioned, or silently killed); the cell is requeued.
    LEASE_EXPIRED = "lease-expired"
    #: A result payload failed its content-digest verification; the
    #: payload is discarded (never merged) and the cell is requeued.
    RESULT_CORRUPT = "result-corrupt"


class CellExecutionError(RuntimeError):
    """A cell failed under a fail-fast policy."""


class CellTimeoutError(CellExecutionError):
    """A cell exceeded its wall-clock timeout under a fail-fast policy."""


@dataclass(frozen=True)
class CellFailure:
    """Positional placeholder for a cell that exhausted its retries.

    Grids keep their shape: :func:`~repro.experiments.parallel.execute_cells`
    returns one of these at the failed cell's position so ``suite.py``,
    ``figures.py`` and ``sweeps.py`` can mark the cell instead of crashing.
    """

    #: The failed cell's spec (a CellSpec; typed loosely to avoid an
    #: import cycle with :mod:`repro.experiments.parallel`).
    spec: object
    kind: FailureKind
    #: Dispatch attempts consumed, including the final failing one.
    attempts: int
    message: str = ""

    def describe(self) -> str:
        return (f"{cell_label(self.spec)}: {self.kind.value} after "
                f"{self.attempts} attempt(s): {self.message}")


def cell_label(spec) -> str:
    """Short human-readable identity of a cell for messages and logs."""
    return f"{spec.mode}:{spec.benchmark}/{spec.predictor}"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Retry/timeout policy for one ``execute_cells`` run.

    The default policy reproduces the historical engine behaviour exactly:
    no timeout, no retries, first failure aborts the run (fail fast).
    """

    #: Per-cell wall-clock timeout in seconds; None disables.  Enforced
    #: via future deadlines, so it requires (and forces) the pool path.
    cell_timeout: Optional[float] = None
    #: Extra dispatch attempts after the first (0 = no retries).
    retries: int = 0
    #: First backoff delay in seconds; doubles per attempt by default.
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    #: Fraction of the delay added as key-derived jitter (0..jitter).
    jitter: float = 0.25
    #: True: first exhausted cell raises.  False (--keep-going): failed
    #: cells become CellFailure placeholders and the run completes.
    fail_fast: bool = True
    #: Total capacity losses (no live slot or worker connection)
    #: tolerated before degrading to inline serial execution; a single
    #: worker's death or timeout does not count.
    max_pool_rebuilds: int = 2
    #: Distributed backend only: seconds a worker may stay silent (no
    #: heartbeat, no result) before its lease expires and the cell is
    #: requeued.  Measured on the coordinator's monotonic clock.
    lease_timeout: float = 10.0
    #: Distributed backend only: seconds between worker heartbeats while
    #: a cell computes.  Must leave several beats per lease window so one
    #: dropped datagram-sized delay cannot expire a healthy lease.
    heartbeat_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_interval >= self.lease_timeout:
            raise ValueError(
                "heartbeat_interval must be shorter than lease_timeout "
                "(a healthy worker must fit several beats per lease window)")


#: The compatibility default: serial semantics identical to the pre-
#: resilience engine (exceptions propagate, nothing is retried).
DEFAULT_POLICY = ResiliencePolicy()


def deterministic_jitter(key: str, attempt: int) -> float:
    """Jitter in ``[0, 1)`` derived from the cell key and attempt number.

    Stable across processes and hosts (SHA-256, not ``hash()``), so retry
    schedules are reproducible and distinct cells de-synchronise their
    retries without consulting ``random`` or the clock.
    """
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:13], 16) / float(16 ** 13)


def backoff_delay(policy: ResiliencePolicy, key: str, attempt: int) -> float:
    """Delay in seconds before retry number ``attempt`` (1-based)."""
    raw = policy.backoff_base * (policy.backoff_factor ** max(attempt - 1, 0))
    raw = min(raw, policy.backoff_max)
    return raw * (1.0 + policy.jitter * deterministic_jitter(key, attempt))


def classify_failure(error: BaseException) -> FailureKind:
    """Map an exception observed by the supervisor to a FailureKind."""
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(error, CellTimeoutError):
        return FailureKind.TIMEOUT
    if isinstance(error, BrokenProcessPool):
        return FailureKind.WORKER_LOST
    return FailureKind.ERROR


# ------------------------------------------------------------ fault injection

#: True while cells run inline in the supervising process (jobs == 1 or
#: degraded serial mode).  Destructive injected faults (crash, hang) are
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
    once: bool         # fire only while the latch file is absent
    arg: Optional[str]  # latch path (once-variants) or seconds (hang)


#: In-cell faults, fired by :func:`maybe_inject_fault` inside whichever
#: process runs the cell.
_FAULT_KINDS = ("error", "crash", "hang")

#: Protocol-level faults, fired by the ``repro worker`` service around
#: the wire protocol rather than inside the cell: ``stall`` suppresses
#: heartbeats and holds the result (→ lease expiry), ``torn`` truncates
#: the result frame mid-send (→ worker-lost), ``corrupt`` flips the
#: result digest (→ result-corrupt).  Ignored by
#: :func:`maybe_inject_fault`; consumed by :func:`take_protocol_fault`.
_PROTOCOL_KINDS = ("stall", "torn", "corrupt")


def parse_fault_spec(text: str) -> List[FaultClause]:
    """Parse the fault-injection spec grammar.

    ``;``-separated clauses of the form ``kind=benchmark/predictor[@arg]``
    where ``kind`` is ``error``, ``crash`` or ``hang`` (in-cell faults) or
    ``stall``, ``torn`` or ``corrupt`` (worker protocol faults), optionally
    suffixed ``-once`` (fire once, latched via the file named by ``arg``).
    For plain ``hang``/``stall``, ``arg`` is an optional sleep duration in
    seconds.  ``""``, ``"0"`` and ``"1"`` mean "no clauses" so the variable
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
        once = kind.endswith("-once")
        if once:
            kind = kind[: -len("-once")]
        if kind not in _FAULT_KINDS and kind not in _PROTOCOL_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {chunk!r}")
        target, _, arg = target.partition("@")
        benchmark, _, predictor = target.partition("/")
        if not benchmark or not predictor:
            raise ValueError(
                f"bad fault target {target!r}: want benchmark/predictor")
        if once and not arg:
            raise ValueError(
                f"{chunk!r}: -once faults need a latch path after '@'")
        clauses.append(FaultClause(kind=kind, benchmark=benchmark,
                                   predictor=predictor, once=once,
                                   arg=arg or None))
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
        if clause.kind in _PROTOCOL_KINDS:
            continue  # worker-service faults; their latches stay unconsumed
        if (clause.benchmark != spec.benchmark
                or clause.predictor != spec.predictor):
            continue
        if clause.once:
            latch = Path(clause.arg)
            if latch.exists():
                continue
            latch.parent.mkdir(parents=True, exist_ok=True)
            latch.write_text("fired")
        _fire(clause)


def take_protocol_fault(spec) -> Optional[FaultClause]:
    """Consume the first protocol-level fault clause matching ``spec``.

    Called by the ``repro worker`` service before computing a cell; the
    returned clause tells it to stall heartbeats, tear the result frame
    or corrupt the result digest.  In-cell kinds (error/crash/hang) are
    ignored here — :func:`maybe_inject_fault` fires those inside
    ``compute_cell``.  ``-once`` latches are honoured the same way.
    """
    text = os.environ.get(FAULT_INJECT_ENV, "")
    if not text or text in ("0", "1"):
        return None
    for clause in parse_fault_spec(text):
        if clause.kind not in _PROTOCOL_KINDS:
            continue
        if (clause.benchmark != spec.benchmark
                or clause.predictor != spec.predictor):
            continue
        if clause.once:
            latch = Path(clause.arg)
            if latch.exists():
                continue
            latch.parent.mkdir(parents=True, exist_ok=True)
            latch.write_text("fired")
        return clause
    return None


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
        seconds = _HANG_SECONDS
        if not clause.once and clause.arg:
            seconds = float(clause.arg)
        time.sleep(seconds)
