"""Parallel suite execution: shard cells across processes, merge in order.

The evaluation grids (Figs. 7–15) are embarrassingly parallel: every
``(benchmark, predictor, config)`` cell is an independent, deterministic
simulation.  This module is the single execution engine behind
:func:`repro.experiments.suite.run_ipc_suite`,
:func:`~repro.experiments.suite.run_accuracy_suite` and the figure
generators:

* **Sharding** — each cell becomes one :class:`CellSpec` task submitted to
  an :class:`~repro.experiments.backends.ExecutorBackend` (``jobs > 1``)
  or computed inline (``jobs == 1``; the default, and always used for a
  single pending cell unless a timeout demands pool supervision).  The
  default backend is ``jobs`` local slots, one worker process each
  (:class:`~repro.experiments.backends.LocalPoolBackend`);
  ``backend="host:port,..."`` instead dispatches cells to ``repro
  worker`` processes on other hosts over a leased, heartbeat-monitored
  TCP protocol (:class:`~repro.experiments.backends.WorkerBackend`).
* **Trace-affine dispatch** — every cell of a benchmark replays the same
  trace, and a worker keeps the traces it generated in the process-global
  :class:`~repro.experiments.runner.TraceCache`.  So an idle slot gets a
  cell of a trace it already holds, else claims a trace no slot holds,
  and steals a cell of another slot's trace only rather than idle
  (:func:`_pick`).  A run generates each trace about once instead of once
  per worker, and a worker holds only the traces it claimed.
* **Determinism** — results are merged positionally, keyed by the cell's
  position in the request, never by completion order.  Every cell builds a
  fresh predictor, and a trace is a pure function of its seeds, so the
  ``jobs=N`` grid is bit-identical to the serial one.
* **Fault tolerance** — a :class:`~repro.experiments.resilience.ResiliencePolicy`
  adds per-cell wall-clock timeouts (enforced via future deadlines),
  bounded retries with key-derived backoff jitter, recovery from worker
  death, and — under ``fail_fast=False`` —
  :class:`~repro.experiments.resilience.CellFailure` placeholders merged
  positionally so callers render partial grids.  A slot runs one cell at
  a time, so a dead worker, a hung one or an expired lease identifies its
  cell with certainty: that cell alone is charged an attempt and the
  other slots' cells run on.  A dead or hung local worker is respawned as
  a fresh slot.  Only total capacity loss (no live slot) counts toward
  ``max_pool_rebuilds``; past that, the run degrades to inline serial
  execution with a ``RuntimeWarning`` instead of aborting.
* **Result caching** — an optional on-disk
  :class:`~repro.experiments.result_cache.ResultCache` is consulted before
  any work is dispatched and populated afterwards, so a warm sweep
  performs zero simulations.
* **Journaling / resume** — an optional
  :class:`~repro.experiments.journal.RunJournal` records every dispatch
  and outcome (results included) to an append-only JSONL file;
  ``resume=<run-id>`` restores previously completed cells bit-identically
  and re-dispatches only failed/pending ones.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..core.config import CoreConfig
from ..obs.metrics import MetricsWriter
from ..predictors.configs import MASCOT_DEFAULT
from ..sampling.policy import SamplingPolicy
from .backends import (
    BackendBrokenError,
    ExecutorBackend,
    LeaseExpiredError,
    LocalPoolBackend,
    ResultCorruptError,
    WorkerBackend,
    WorkerLostError,
    lease_id,
    parse_endpoints,
)
from .journal import (
    JournalRun,
    JournalState,
    RunJournal,
    default_journal_dir,
)
from .resilience import (
    DEFAULT_POLICY,
    CellFailure,
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
    backoff_delay,
    cell_label,
    inline_execution,
    maybe_inject_fault,
)
from .result_cache import ResultCache, cell_key
from .runner import default_cache, run_prediction_only, run_timing, trace_key

__all__ = ["BackendSpec", "CellSpec", "CacheSpec", "Execution",
           "JournalSpec", "MetricsSpec", "ResumeSpec", "compute_cell",
           "execute_cells", "resolve_cache", "resolve_journal"]

#: Accepted forms of the ``cache=`` parameter threaded through the suite
#: and figure APIs: ``None``/``False`` disable the disk cache, ``True``
#: selects the default directory ($REPRO_CACHE_DIR or ~/.cache/repro-mascot),
#: a path selects a local directory, and a ResultCache instance is used as
#: given.
CacheSpec = Union[None, bool, str, Path, ResultCache]

#: Accepted forms of the ``journal=`` parameter: ``None``/``False`` disable
#: journaling, ``True`` selects the default directory ($REPRO_JOURNAL_DIR
#: or <cache-dir>/journals), a path selects that directory, and a
#: RunJournal is used as given.
JournalSpec = Union[None, bool, str, Path, RunJournal]

#: Accepted forms of the ``resume=`` parameter: a run id, several run ids
#: (later ones win on conflicts), or a pre-loaded JournalState.
ResumeSpec = Union[None, str, Sequence[str], JournalState]

#: Accepted forms of the ``metrics=`` parameter: ``None`` disables metric
#: emission, a path appends JSONL records to that file, and a
#: MetricsWriter is used as given (and left open for the caller to close).
MetricsSpec = Union[None, str, Path, MetricsWriter]

#: Accepted forms of the ``backend=`` parameter: ``None``/``"local"``
#: run ``jobs`` local worker slots, a ``"host:port[,host:port]"``
#: string dispatches to ``repro worker`` endpoints, and an
#: ExecutorBackend instance is driven as given (and left open for the
#: caller to close).
BackendSpec = Union[None, str, ExecutorBackend]

#: Supervisor poll interval in seconds: the granularity of timeout
#: enforcement and retry re-dispatch.
_TICK = 0.05


@dataclass(frozen=True)
class CellSpec:
    """One schedulable unit of suite work.

    Frozen and built only from picklable value types so it can cross a
    process boundary and be content-addressed for the on-disk cache.
    """

    #: ``"timing"`` (full pipeline, returns PipelineStats) or
    #: ``"accuracy"`` (prediction-only replay, returns PredictionRunResult).
    mode: str
    benchmark: str
    num_uops: int
    #: Canonical predictor name from the suite registry.
    predictor: str
    #: Core to simulate; required for timing cells, unused for accuracy.
    config: Optional[CoreConfig] = None
    program_seed: int = 0
    trace_seed: int = 1
    store_window: int = 114
    instr_window: int = 512
    #: Accuracy mode only: micro-ops that train but are not measured.
    warmup: int = 0
    #: Accuracy mode only: F1-recording period in loads (Fig. 14).
    f1_period: Optional[int] = None
    #: Build the predictor with per-entry F1 tracking (MASCOT only).
    track_f1: bool = False
    #: Accuracy mode only: attach a TableTelemetry sink and return its
    #: counters in the result (Fig. 13, ``repro profile``).
    telemetry: bool = False
    #: Timing mode only: which pipeline implementation runs the cell
    #: (``"scalar"`` reference or bit-identical ``"batched"``).
    engine: str = "scalar"
    #: Sampled simulation: select representative regions under this
    #: policy, simulate only those, and reconstruct full-run metrics with
    #: confidence intervals (see :mod:`repro.sampling`).  None = full run.
    sampling: Optional[SamplingPolicy] = None

    def __post_init__(self) -> None:
        if self.mode not in ("timing", "accuracy"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        if self.mode == "timing" and self.config is None:
            raise ValueError("timing cells need a core config")
        if self.track_f1 and self.predictor != "mascot":
            raise ValueError("track_f1 is only supported for 'mascot'")
        if self.telemetry and self.mode != "accuracy":
            raise ValueError("telemetry cells must be accuracy mode")
        if self.engine not in ("scalar", "batched"):
            raise ValueError(f"unknown timing engine {self.engine!r}")
        if self.engine != "scalar" and self.mode != "timing":
            raise ValueError("engine selection applies to timing cells only")
        if self.sampling is not None:
            if not isinstance(self.sampling, SamplingPolicy):
                raise ValueError("sampling must be a SamplingPolicy")
            if self.warmup or self.f1_period is not None:
                raise ValueError(
                    "sampling is incompatible with warmup/f1_period: "
                    "sampled warmup is governed by the policy's "
                    "warmup_intervals"
                )
            if self.telemetry or self.track_f1:
                raise ValueError(
                    "sampling cells cannot record telemetry or F1 "
                    "profiles: those describe one contiguous run"
                )
            if self.sampling.interval_length * 2 > self.num_uops:
                raise ValueError(
                    "sampling interval_length too long: the trace must "
                    "contain at least two full regions"
                )

    @property
    def trace_key(self) -> Tuple:
        """The :class:`~repro.experiments.runner.TraceCache` key of the
        trace this cell replays."""
        return trace_key(self.benchmark, self.num_uops, self.program_seed,
                         self.trace_seed, self.store_window,
                         self.instr_window)


def _build_predictor(spec: CellSpec):
    if spec.track_f1:
        # The registry builds plain predictors; F1 tracking is a
        # construction-time option of the default MASCOT (Fig. 14).
        from ..predictors.mascot import Mascot
        return Mascot(MASCOT_DEFAULT, track_f1=True)
    from .suite import make_predictor  # local import: suite imports us
    return make_predictor(spec.predictor)


def compute_cell(spec: CellSpec):
    """Run one cell to completion; the pure function the pool maps.

    Also the serial path and the spy-point for test instrumentation:
    every non-cached cell, parallel or not, goes through here.  The
    fault-injection hook fires first so tests and the CI fault job can
    make this call fail, crash or hang inside a real worker process.
    """
    maybe_inject_fault(spec)
    cache = default_cache()
    trace = cache.get(*spec.trace_key)
    if spec.sampling is not None:
        def factory():
            return _build_predictor(spec)

        selection = cache.selection(spec.trace_key, spec.sampling)
        if spec.mode == "timing":
            return run_timing(trace, None, config=spec.config,
                              engine=spec.engine, sampling=spec.sampling,
                              predictor_factory=factory, selection=selection)
        return run_prediction_only(trace, None, sampling=spec.sampling,
                                   predictor_factory=factory,
                                   selection=selection)
    predictor = _build_predictor(spec)
    if spec.mode == "timing":
        return run_timing(trace, predictor, config=spec.config,
                          engine=spec.engine)
    return run_prediction_only(trace, predictor,
                               f1_period=spec.f1_period, warmup=spec.warmup,
                               telemetry=spec.telemetry)


def resolve_cache(cache: CacheSpec) -> Optional[ResultCache]:
    """Normalise a ``cache=`` argument to a cache store or None.

    A local cache whose directory is not writable is degraded here, at
    resolve time, to read-only mode with a single ``RuntimeWarning`` —
    never by failing the first ``put`` mid-sweep.  Read-only mode still
    serves hits (a fully warm shared or CI-mounted cache performs zero
    simulations); only stores are skipped.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        store = ResultCache()
    elif isinstance(cache, ResultCache):
        store = cache
    else:
        store = ResultCache(cache)
    error = store.probe_writable()
    if error is not None:
        store.read_only = True
        warnings.warn(
            f"result cache read-only: {store.directory} is not writable "
            f"({error}); serving existing entries, skipping stores",
            RuntimeWarning, stacklevel=2)
    return store


def resolve_journal(journal: JournalSpec) -> Optional[RunJournal]:
    """Normalise a ``journal=`` argument to a RunJournal or None."""
    if journal is None or journal is False:
        return None
    if journal is True:
        store = RunJournal()
    elif isinstance(journal, RunJournal):
        store = journal
    else:
        store = RunJournal(journal)
    error = store.probe_writable()
    if error is not None:
        warnings.warn(
            f"run journal disabled: {store.directory} is not writable "
            f"({error})", RuntimeWarning, stacklevel=2)
        return None
    return store


def _cell_record(spec: CellSpec, key: Optional[str], source: str,
                 attempts: int, duration: float, status: str = "ok",
                 kind: Optional[str] = None, message: Optional[str] = None,
                 worker: Optional[str] = None) -> Dict[str, object]:
    """One per-cell metrics record (JSONL row); ``worker`` names where a
    computed cell ran (``inline`` or the backend's slot label)."""
    record: Dict[str, object] = {
        "event": "cell",
        "mode": spec.mode,
        "benchmark": spec.benchmark,
        "predictor": spec.predictor,
        "num_uops": spec.num_uops,
        "core": spec.config.name if spec.config is not None else None,
        "key": key,
        "source": source,
        "attempts": attempts,
        "duration_s": round(duration, 6),
        "status": status,
        "worker": worker,
    }
    if kind is not None:
        record["failure_kind"] = kind
        record["failure_message"] = message
    return record


@dataclass(frozen=True)
class Execution:
    """How a grid runs, as one value.

    The seven run knobs every suite, figure and sweep entry point takes
    — ``jobs``, ``cache``, ``policy``, ``journal``, ``resume``,
    ``metrics`` and ``backend`` — in the forms :func:`execute_cells`
    accepts for its keywords of the same names (:data:`CacheSpec`,
    :data:`JournalSpec`, :data:`ResumeSpec`, :data:`MetricsSpec`,
    :data:`BackendSpec`).  The default is the historical run: serial,
    uncached, unjournaled, fail-fast, in-process.  :meth:`resolve` is
    the one place the specs become live stores, writers and backends.
    """

    jobs: int = 1
    cache: CacheSpec = None
    policy: Optional[ResiliencePolicy] = None
    journal: JournalSpec = None
    resume: ResumeSpec = None
    metrics: MetricsSpec = None
    backend: BackendSpec = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @classmethod
    def from_args(cls, args) -> "Execution":
        """The execution a CLI invocation's flags describe.

        The CLI caches and journals by default (``--no-cache`` /
        ``--no-journal`` opt out).  The resilience flags build a policy
        only when one is given, so the default run stays fail-fast.
        The journal directory is ``--journal-dir``, else
        :func:`~repro.experiments.journal.default_journal_dir` under
        ``--cache-dir``.  ``--resume`` with journaling off is loaded here,
        from that directory, since the run itself then carries no journal
        directory.  ``args`` must carry every flag the CLI's shared sweep
        options define.
        """
        cache: CacheSpec = False
        if not args.no_cache:
            cache = args.cache_dir or True
        journal_dir = args.journal_dir or default_journal_dir(args.cache_dir)
        journaling = not args.no_journal
        resume = args.resume
        if resume is not None and not journaling:
            resume = RunJournal(journal_dir).load_many(resume)
        policy = None
        if args.cell_timeout is not None or args.retries or args.keep_going:
            policy = ResiliencePolicy(cell_timeout=args.cell_timeout,
                                      retries=args.retries,
                                      fail_fast=not args.keep_going)
        if args.backend == "workers" and args.workers is None:
            raise SystemExit("repro: error: --backend workers requires "
                             "--workers HOST:PORT[,HOST:PORT...]")
        return cls(jobs=args.jobs, cache=cache, policy=policy,
                   journal=journal_dir if journaling else None,
                   resume=resume, metrics=args.metrics, backend=args.workers)

    def run(self, cells: Sequence[CellSpec]) -> List[object]:
        """:func:`execute_cells` under this execution."""
        return execute_cells(cells, self.jobs, self.cache, self.policy,
                             self.journal, self.resume, self.metrics,
                             self.backend)

    def resolve(self) -> "_Resources":
        """Turn the specs into live resources for one sweep.

        Cache and journal go through :func:`resolve_cache` and
        :func:`resolve_journal` (degrading with one warning when not
        writable).  ``resume`` run ids load from the journal directory:
        the live journal's when journaling resolved on, else the one the
        ``journal`` spec names, else the default — so a resume finds the
        run it came from even when its journal is disabled or read-only.
        A ``metrics`` path opens a writer and an endpoint-string
        ``backend`` builds a :class:`~repro.experiments.backends
        .WorkerBackend` configured from the policy's lease knobs; both
        are owned by the resources and closed with them.  Instances
        given in the specs stay open.
        """
        policy = self.policy if self.policy is not None else DEFAULT_POLICY
        owned: List[object] = []
        remote = self.backend
        if remote == "local":
            remote = None
        elif remote is not None and not isinstance(remote, ExecutorBackend):
            remote = WorkerBackend(
                parse_endpoints(str(remote)),
                lease_timeout=policy.lease_timeout,
                heartbeat_interval=policy.heartbeat_interval)
            owned.append(remote)
        store = resolve_cache(self.cache)
        journal = resolve_journal(self.journal)
        resume = self.resume
        if resume is not None and not isinstance(resume, JournalState):
            run_ids = [resume] if isinstance(resume, str) else list(resume)
            if journal is not None:
                loader = journal
            elif isinstance(self.journal, RunJournal):
                loader = self.journal
            elif isinstance(self.journal, (str, Path)):
                loader = RunJournal(self.journal)
            else:
                loader = RunJournal()
            resume = loader.load_many(run_ids)
        writer = self.metrics or None
        if writer is not None and not isinstance(writer, MetricsWriter):
            writer = MetricsWriter(writer)
            owned.append(writer)
        return _Resources(policy, store, journal, resume, writer, remote,
                          owned)


@dataclass
class _Resources:
    """One sweep's live view of an :class:`Execution`."""

    policy: ResiliencePolicy
    store: Optional[ResultCache]
    journal: Optional[RunJournal]
    resume: Optional[JournalState]
    writer: Optional[MetricsWriter]
    remote: Optional[ExecutorBackend]
    #: Resources built by :meth:`Execution.resolve`, closed by close().
    owned: List[object]

    def close(self) -> None:
        for resource in self.owned:
            resource.close()


@dataclass
class _Task:
    """Supervisor-side state of one pending cell."""

    position: int
    spec: CellSpec
    key: Optional[str]
    attempts: int = 0
    #: Earliest monotonic time this task may be (re)dispatched (backoff).
    ready_at: float = 0.0
    started_at: float = 0.0
    deadline: Optional[float] = None
    #: The backend slot running this task, and that slot's label.
    slot: Optional[object] = None
    worker: Optional[str] = None
    result: Optional[object] = None
    failure: Optional[CellFailure] = None

    @property
    def backoff_key(self) -> str:
        return self.key if self.key is not None else cell_label(self.spec)

    @property
    def done(self) -> bool:
        return self.result is not None or self.failure is not None


def execute_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    cache: CacheSpec = None,
    policy: Optional[ResiliencePolicy] = None,
    journal: JournalSpec = None,
    resume: ResumeSpec = None,
    metrics: MetricsSpec = None,
    backend: BackendSpec = None,
) -> List[object]:
    """Execute every cell; returns results in the order cells were given.

    Resume carries and cache hits are resolved up front; only misses are
    dispatched.  With ``jobs > 1`` (or a cell timeout, which requires pool
    supervision) the misses are supervised over ``jobs`` local slots —
    module-level :func:`compute_cell` plus frozen specs keep the tasks
    picklable under every start method.  With ``backend=`` naming worker
    endpoints, misses are always supervised and dispatched over TCP under
    per-cell leases instead (``jobs`` is ignored; capacity is the number
    of reachable workers).  The merge is positional, so completion order
    (and therefore ``jobs`` or the backend) can never reorder or alter a
    grid.

    Under the default policy and backend, behaviour is identical to the
    historical engine: no timeout, no retries, the first failure
    propagates.  With ``policy.fail_fast=False`` a failed cell becomes a
    :class:`~repro.experiments.resilience.CellFailure` placeholder at its
    position and the rest of the grid completes.
    """
    env = Execution(jobs, cache, policy, journal, resume, metrics,
                    backend).resolve()
    policy, store, journal_store = env.policy, env.store, env.journal
    resume_state, writer, remote = env.resume, env.writer, env.remote

    emit = None
    if writer is not None:
        def emit(spec, key, source, attempts, duration, status="ok",
                 kind=None, message=None, worker=None):
            writer.emit(_cell_record(spec, key, source, attempts, duration,
                                     status=status, kind=kind,
                                     message=message, worker=worker))

    keyed = (store is not None or journal_store is not None
             or resume_state is not None or policy.retries > 0)
    keys: Dict[CellSpec, str] = {}

    def key_of(spec: CellSpec) -> Optional[str]:
        if not keyed:
            return None
        return keys.setdefault(spec, cell_key(spec))

    results: List[Optional[object]] = [None] * len(cells)
    sources: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    for position, spec in enumerate(cells):
        key = key_of(spec)
        if resume_state is not None and key in resume_state.completed:
            results[position] = resume_state.completed[key]
            sources[position] = "journal"
            if store is not None and not store.contains(key):
                store.store(key, results[position])
            if emit is not None:
                emit(spec, key, "journal", 0, 0.0)
            continue
        if store is not None:
            hit = store.load(key)
            if hit is not None:
                results[position] = hit
                sources[position] = "cache"
                if emit is not None:
                    emit(spec, key, "cache", 0, 0.0)
                continue
        pending.append(position)

    run: Optional[JournalRun] = None
    if journal_store is not None:
        run = journal_store.begin([key_of(spec) for spec in cells])
        for position, result in enumerate(results):
            if result is not None:
                run.record_ok(keys[cells[position]], attempts=0,
                              duration=0.0, source=sources[position],
                              result=result)

    events = writer.emit if writer is not None else None

    def finalize(task: "_Task") -> None:
        """Merge one computed task as it settles: result slot and cache
        store.  Storing here (not after the whole wave) means a
        coordinator killed mid-grid has already persisted every settled
        cell."""
        if task.failure is not None:
            results[task.position] = task.failure
        else:
            results[task.position] = task.result
            if store is not None:
                store.store(task.key, task.result)
        sources[task.position] = "computed"

    try:
        if pending:
            tasks = [_Task(position=i, spec=cells[i], key=key_of(cells[i]))
                     for i in pending]
            if remote is not None:
                _run_supervised(tasks, remote, policy, run, emit, events,
                                notify=finalize)
            else:
                use_pool = (policy.cell_timeout is not None
                            or (jobs > 1 and len(pending) > 1))
                if use_pool:
                    local = LocalPoolBackend(
                        max(1, min(jobs, len(pending))))
                    try:
                        _run_supervised(tasks, local, policy, run, emit,
                                        events, notify=finalize)
                    finally:
                        local.close()
                else:
                    for task in tasks:
                        _run_inline(task, policy, run, emit,
                                    notify=finalize)
            for task in tasks:
                if results[task.position] is None:  # defensive: a task
                    finalize(task)  # that somehow settled unnotified
    finally:
        if run is not None:
            run.finish()
            print(f"[repro] journal {run.run_id}: {run.ok} ok, "
                  f"{run.failed} failed -> {run.path}", file=sys.stderr)
        if writer is not None:
            failed = sum(1 for r in results if isinstance(r, CellFailure))
            record = {
                "event": "sweep",
                "cells": len(cells),
                "from_journal": sources.count("journal"),
                "cache_hits": sources.count("cache"),
                "cache_misses": (store.misses
                                 if store is not None else None),
                "computed": len(pending),
                "failed": failed,
                "jobs": jobs,
            }
            if store is not None:
                record["cache"] = dict(store.counters)
            if remote is not None:
                record["backend"] = dict(remote.counters)
                record["backend_workers"] = remote.workers
            writer.emit(record)
        env.close()
    return results


# ------------------------------------------------------------ inline path

def _run_inline(task: _Task, policy: ResiliencePolicy,
                run: Optional[JournalRun], emit=None,
                notify: Optional[Callable[["_Task"], None]] = None) -> None:
    """Serial execution of one task with retries; no timeout enforcement.

    Used for ``jobs == 1`` and for degraded mode after repeated pool
    failures.  Injected crash/hang faults are downgraded to errors inside
    :func:`~repro.experiments.resilience.inline_execution` so they cannot
    kill or stall the supervising process; a *real* crash in inline mode
    necessarily takes the process down — that is the nature of inline.
    """
    while True:
        delay = task.ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        task.attempts += 1
        if run is not None:
            run.record_dispatch(task.key, task.attempts)
        start = time.monotonic()
        try:
            with inline_execution():
                task.result = compute_cell(task.spec)
        except Exception as error:
            if task.attempts <= policy.retries:
                task.ready_at = time.monotonic() + backoff_delay(
                    policy, task.backoff_key, task.attempts)
                continue
            message = f"{type(error).__name__}: {error}"
            if run is not None:
                run.record_fail(task.key, task.attempts,
                                FailureKind.ERROR.value, message)
            if emit is not None:
                emit(task.spec, task.key, "computed", task.attempts,
                     time.monotonic() - start, status="failed",
                     kind=FailureKind.ERROR.value, message=message,
                     worker="inline")
            if policy.fail_fast:
                raise
            task.failure = CellFailure(spec=task.spec,
                                       kind=FailureKind.ERROR,
                                       attempts=task.attempts,
                                       message=message)
            if notify is not None:
                notify(task)
            return
        else:
            duration = time.monotonic() - start
            if run is not None:
                run.record_ok(task.key, task.attempts, duration,
                              "computed", task.result)
            if emit is not None:
                emit(task.spec, task.key, "computed", task.attempts,
                     duration, worker="inline")
            if notify is not None:
                notify(task)
            return


# -------------------------------------------------------- supervised path

def _pick(slot: object, ready: List[_Task], queue: List[_Task],
          held: Dict[object, Set[Tuple]]) -> Optional[_Task]:
    """The task idle ``slot`` runs next, under trace affinity.

    In order: the first ready task of a trace the slot already holds;
    the first ready task of a trace no slot holds (the slot claims it);
    and only when the slot would otherwise idle, a ready task of the
    trace with the most queued cells (a steal: the slot generates that
    trace too).  ``held`` maps each live slot to the trace keys it has
    been given.
    """
    mine = held[slot]
    for task in ready:
        if task.spec.trace_key in mine:
            return task
    claimed = set().union(*held.values())
    for task in ready:
        if task.spec.trace_key not in claimed:
            return task
    if not ready:
        return None
    queued = Counter(task.spec.trace_key for task in queue)
    return max(ready, key=lambda task: queued[task.spec.trace_key])


def _run_supervised(tasks: List[_Task], backend: ExecutorBackend,
                    policy: ResiliencePolicy,
                    run: Optional[JournalRun], emit=None,
                    events: Optional[Callable[[Dict], None]] = None,
                    notify: Optional[Callable[[_Task], None]] = None) -> None:
    """Supervisor loop: trace-affine dispatch, deadlines, retries, leases.

    Drives an :class:`~repro.experiments.backends.ExecutorBackend` one
    cell per slot, giving each idle slot a task by :func:`_pick`.  A
    slot's claims last as long as its token: a respawned or reconnected
    slot starts with an empty trace memo and no claims.  ``events``,
    when given, receives free-form metric records (requeues, lease
    lifecycle) beyond the per-cell ``emit``.
    """
    backend.connect_all()
    breakages = 0  # total capacity losses
    degraded = False
    queue: List[_Task] = list(tasks)
    running: Dict[object, _Task] = {}
    held: Dict[object, Set[Tuple]] = {}

    def observe_lease(action: str, handle: object) -> None:
        """Journal lease renewals/expiries the backend reports."""
        task = running.get(handle)
        if task is None or run is None:
            return
        run.record_lease(action, task.key, getattr(handle, "lease", None),
                         task.worker)

    if backend.leased:
        backend.lease_observer = observe_lease

    def submit(task: _Task, slot: object) -> bool:
        """Dispatch one task to idle ``slot``; False when the slot failed.

        The slot is idle, so the deadline stamped here approximates
        actual execution start — a queued cell never accrues timeout.
        """
        task.attempts += 1
        if run is not None:
            run.record_dispatch(task.key, task.attempts)
        task.started_at = time.monotonic()
        task.deadline = (task.started_at + policy.cell_timeout
                         if policy.cell_timeout is not None else None)
        lease = (lease_id(task.backoff_key, task.attempts)
                 if backend.leased else None)
        try:
            handle = backend.submit(slot, compute_cell, task.spec,
                                    lease=lease)
        except BackendBrokenError:
            task.attempts -= 1
            return False
        task.slot, task.worker = slot, backend.describe(handle)
        running[handle] = task
        if backend.leased and run is not None:
            run.record_lease("grant", task.key, lease, task.worker)
        return True

    def record_ok(task: _Task) -> None:
        duration = time.monotonic() - task.started_at
        if run is not None:
            run.record_ok(task.key, task.attempts, duration, "computed",
                          task.result)
        if emit is not None:
            emit(task.spec, task.key, "computed", task.attempts, duration,
                 worker=task.worker)
        if notify is not None:
            notify(task)

    def settle(task: _Task, kind: FailureKind, message: str,
               error: Optional[BaseException]) -> None:
        """Retry with backoff, or finalise the failure (raise/placeholder)."""
        if task.attempts <= policy.retries:
            task.ready_at = time.monotonic() + backoff_delay(
                policy, task.backoff_key, task.attempts)
            queue.append(task)
            if events is not None:
                events({"event": "requeue", "key": task.key,
                        "kind": kind.value, "attempt": task.attempts})
            return
        if run is not None:
            run.record_fail(task.key, task.attempts, kind.value, message)
        if emit is not None:
            emit(task.spec, task.key, "computed", task.attempts,
                 time.monotonic() - task.started_at, status="failed",
                 kind=kind.value, message=message, worker=task.worker)
        if policy.fail_fast:
            if kind is FailureKind.TIMEOUT:
                raise CellTimeoutError(f"{cell_label(task.spec)}: {message}")
            if isinstance(error, WorkerLostError) \
                    and error.original is not None:
                raise error.original  # the pool's BrokenProcessPool
            if error is not None:
                raise error
            raise CellTimeoutError(message)  # unreachable; defensive
        task.failure = CellFailure(spec=task.spec, kind=kind,
                                   attempts=task.attempts, message=message)
        if notify is not None:
            notify(task)

    try:
        while queue or running:
            if degraded:
                # Degraded serial mode: drain everything inline, in
                # positional order for determinism.
                leftovers = sorted(queue, key=lambda t: t.position)
                queue = []
                for task in leftovers:
                    _run_inline(task, policy, run, emit, notify=notify)
                continue

            if backend.workers == 0 and not running:
                # Total capacity loss: rebuild restores what it can;
                # repeated losses degrade to inline serial execution.
                breakages += 1
                if breakages > policy.max_pool_rebuilds:
                    warnings.warn(
                        f"worker pool failed {breakages} times; degrading "
                        "to inline serial execution (timeouts no longer "
                        "enforced)", RuntimeWarning, stacklevel=2)
                    degraded = True
                    backend.close()
                else:
                    backend.rebuild()
                continue

            # --- dispatch ---------------------------------------------
            now = time.monotonic()
            live = backend.slots()
            held = {slot: held.get(slot, set()) for slot in live}
            busy = {task.slot for task in running.values()}
            ready = [t for t in queue if t.ready_at <= now]
            for slot in live:
                if slot in busy:
                    continue
                task = _pick(slot, ready, queue, held)
                if task is None:
                    break
                ready.remove(task)
                queue.remove(task)
                if submit(task, slot):
                    held[slot].add(task.spec.trace_key)
                else:
                    queue.insert(0, task)

            if not running:
                if queue:
                    soonest = min(t.ready_at for t in queue)
                    time.sleep(
                        min(max(soonest - time.monotonic(), 0.0), 1.0)
                        + 0.001)
                continue

            # --- harvest ----------------------------------------------
            for handle in backend.wait(_TICK):
                task = running.pop(handle, None)
                if task is None:
                    continue  # forgotten (timed out) before settling
                try:
                    task.result = backend.result(handle)
                except WorkerLostError as error:
                    settle(task, FailureKind.WORKER_LOST, str(error), error)
                except LeaseExpiredError as error:
                    settle(task, FailureKind.LEASE_EXPIRED, str(error),
                           error)
                except ResultCorruptError as error:
                    settle(task, FailureKind.RESULT_CORRUPT, str(error),
                           error)
                except Exception as error:
                    settle(task, FailureKind.ERROR,
                           f"{type(error).__name__}: {error}", error)
                else:
                    record_ok(task)

            # --- deadlines --------------------------------------------
            if policy.cell_timeout is not None:
                now = time.monotonic()
                expired = [(handle, task) for handle, task in running.items()
                           if task.deadline is not None
                           and now >= task.deadline]
                for handle, task in expired:
                    # Abandoning the handle kills or drops its slot's
                    # worker; the other slots' cells run on.
                    del running[handle]
                    backend.forget(handle)
                    settle(task, FailureKind.TIMEOUT,
                           f"exceeded {policy.cell_timeout:.3g}s "
                           "wall-clock timeout", None)
    finally:
        if backend.leased:
            backend.lease_observer = None
