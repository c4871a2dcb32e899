"""Parallel suite execution: shard cells across processes, merge in order.

The evaluation grids (Figs. 7–15) are embarrassingly parallel: every
``(benchmark, predictor, config)`` cell is an independent, deterministic
simulation.  This module is the single execution engine behind
:func:`repro.experiments.suite.run_ipc_suite`,
:func:`~repro.experiments.suite.run_accuracy_suite` and the figure
generators:

* **Sharding** — each cell becomes one :class:`CellSpec` task submitted to
  ``jobs`` local slots, one worker process each
  (:class:`~repro.experiments.backends.LocalPoolBackend`, with
  ``jobs > 1``), or computed inline (``jobs == 1``; the default, and
  always used for a single pending cell unless a timeout demands pool
  supervision).  Cells run on this host; several hosts split a grid by
  its ``--benchmarks`` and merge their cache directories
  (docs/resilience.md, "Splitting a grid across hosts").
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
  adds per-cell wall-clock timeouts (enforced via future deadlines) and,
  under ``fail_fast=False``,
  :class:`~repro.experiments.resilience.CellFailure` placeholders merged
  positionally so callers render partial grids.  Each cell is dispatched
  once.  A slot runs one cell at a time, so a dead or hung worker
  identifies its cell with certainty: that cell alone fails, the slot is
  respawned as a fresh one, and the other slots' cells run on.  A slot
  that cannot be respawned is dropped; once none is left, every queued
  cell fails ``worker-lost``.
* **Result caching** — an optional on-disk
  :class:`~repro.experiments.result_cache.ResultCache` is consulted before
  any work is dispatched and stores each cell as it settles, so a warm
  sweep performs zero simulations.  The cache is also the recovery:
  rerunning a killed or partly failed grid on the same cache directory
  serves every settled cell as a verified hit and computes only the
  rest (a failed cell is never stored).
"""

from __future__ import annotations

import time
import warnings
from collections import Counter
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Set, Tuple,
                    Union)

from ..core.config import CoreConfig
from ..obs.metrics import MetricsWriter
from ..predictors.registry import PredictorSpec, predictor_spec
from ..sampling.policy import SamplingPolicy
from .backends import LocalPoolBackend, WorkerLostError
from .resilience import (
    DEFAULT_POLICY,
    CellFailure,
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
    cell_label,
    inline_execution,
    maybe_inject_fault,
)
from .result_cache import ResultCache, cell_key
from .runner import default_cache, run_prediction_only, run_timing, trace_key

__all__ = ["CellSpec", "CacheSpec", "Execution", "MetricsSpec",
           "compute_cell", "execute_cells", "resolve_cache"]

#: Accepted forms of the ``cache=`` parameter threaded through the suite
#: and figure APIs: ``None``/``False`` disable the disk cache, ``True``
#: selects the default directory ($REPRO_CACHE_DIR or ~/.cache/repro-mascot),
#: a path selects a local directory, and a ResultCache instance is used as
#: given.
CacheSpec = Union[None, bool, str, Path, ResultCache]

#: Accepted forms of the ``metrics=`` parameter: ``None`` disables metric
#: emission, a path appends JSONL records to that file, and a
#: MetricsWriter is used as given (and left open for the caller to close).
MetricsSpec = Union[None, str, Path, MetricsWriter]

#: Supervisor poll interval in seconds: the granularity of timeout
#: enforcement.
_TICK = 0.05


@dataclass(frozen=True)
class CellSpec:
    """One schedulable unit of suite work.

    Frozen and built only from picklable value types so it can cross a
    process boundary and be content-addressed for the on-disk cache.
    """

    #: ``"timing"`` (full batched pipeline, returns PipelineStats) or
    #: ``"accuracy"`` (prediction-only replay, returns PredictionRunResult).
    mode: str
    benchmark: str
    num_uops: int
    #: A registered name or a spec; stored as the spec.
    predictor: Union[str, PredictorSpec]
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
    #: Accuracy mode only: attach a TableTelemetry sink and return its
    #: counters in the result (Fig. 13, ``repro profile``).
    telemetry: bool = False
    #: Not a field: every timing cell runs the batched engine.  Kept
    #: only because ``bench/workload.py`` still passes ``"batched"`` for
    #: timing cells and ``"scalar"`` for accuracy cells; never stored,
    #: keyed or compared.  Drop it once that caller stops passing it.
    engine: InitVar[Optional[str]] = None
    #: Sampled simulation: select representative regions under this
    #: policy, simulate only those, and reconstruct full-run metrics with
    #: confidence intervals (see :mod:`repro.sampling`).  None = full run.
    sampling: Optional[SamplingPolicy] = None

    def __post_init__(self, engine: Optional[str]) -> None:
        object.__setattr__(self, "predictor", predictor_spec(self.predictor))
        if self.mode not in ("timing", "accuracy"):
            raise ValueError(f"unknown cell mode {self.mode!r}")
        if self.mode == "timing" and self.config is None:
            raise ValueError("timing cells need a core config")
        if self.telemetry and self.mode != "accuracy":
            raise ValueError("telemetry cells must be accuracy mode")
        if engine not in (None, "batched" if self.mode == "timing"
                          else "scalar"):
            raise ValueError(
                f"{self.mode} cells do not take engine={engine!r}: timing "
                "cells always run batched; construct the scalar Pipeline "
                "oracle directly")
        if self.sampling is not None:
            if not isinstance(self.sampling, SamplingPolicy):
                raise ValueError("sampling must be a SamplingPolicy")
            if self.warmup or self.f1_period is not None:
                raise ValueError(
                    "sampling is incompatible with warmup/f1_period: "
                    "sampled warmup is governed by the policy's "
                    "warmup_intervals"
                )
            if self.telemetry:
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
        factory = spec.predictor.build
        selection = cache.selection(spec.trace_key, spec.sampling)
        if spec.mode == "timing":
            return run_timing(trace, None, config=spec.config,
                              sampling=spec.sampling,
                              predictor_factory=factory, selection=selection)
        return run_prediction_only(trace, None, sampling=spec.sampling,
                                   predictor_factory=factory,
                                   selection=selection)
    predictor = spec.predictor.build()
    if spec.mode == "timing":
        return run_timing(trace, predictor, config=spec.config)
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


def _cell_record(spec: CellSpec, key: Optional[str], source: str,
                 duration: float, status: str = "ok",
                 kind: Optional[str] = None, message: Optional[str] = None,
                 worker: Optional[str] = None) -> Dict[str, object]:
    """One per-cell metrics record (JSONL row); ``worker`` names where a
    computed cell ran (``inline`` or the backend's slot label)."""
    record: Dict[str, object] = {
        "event": "cell",
        "mode": spec.mode,
        "benchmark": spec.benchmark,
        "predictor": spec.predictor.name,
        "num_uops": spec.num_uops,
        "core": spec.config.name if spec.config is not None else None,
        "key": key,
        "source": source,
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

    The four run knobs every suite, figure and sweep entry point takes
    — ``jobs``, ``cache``, ``policy`` and ``metrics`` — in the forms
    :func:`execute_cells` accepts for its keywords of the same names
    (:data:`CacheSpec`, :data:`MetricsSpec`).  The default is the
    historical run: serial, uncached, fail-fast, in-process.
    :meth:`resolve` is the one place the specs become a live store and
    writer.
    """

    jobs: int = 1
    cache: CacheSpec = None
    policy: Optional[ResiliencePolicy] = None
    metrics: MetricsSpec = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @classmethod
    def from_args(cls, args) -> "Execution":
        """The execution a CLI invocation's flags describe.

        The CLI caches by default (``--no-cache`` opts out), so rerunning
        a killed command computes only the cells that had not settled.
        The resilience flags build a policy only when one is given, so
        the default run stays fail-fast.  ``args`` must carry every flag
        the CLI's shared sweep options define.
        """
        cache: CacheSpec = False
        if not args.no_cache:
            cache = args.cache_dir or True
        policy = None
        if args.cell_timeout is not None or args.keep_going:
            policy = ResiliencePolicy(cell_timeout=args.cell_timeout,
                                      fail_fast=not args.keep_going)
        return cls(jobs=args.jobs, cache=cache, policy=policy,
                   metrics=args.metrics)

    def run(self, cells: Sequence[CellSpec]) -> List[object]:
        """:func:`execute_cells` under this execution."""
        return execute_cells(cells, self.jobs, self.cache, self.policy,
                             self.metrics)

    def resolve(self) -> "_Resources":
        """Turn the specs into live resources for one sweep.

        The cache goes through :func:`resolve_cache` (degrading to
        read-only with one warning when not writable).  A ``metrics``
        path opens a writer, owned by the resources and closed with them;
        a writer given in the spec stays open.
        """
        policy = self.policy if self.policy is not None else DEFAULT_POLICY
        owned: List[object] = []
        store = resolve_cache(self.cache)
        writer = self.metrics or None
        if writer is not None and not isinstance(writer, MetricsWriter):
            writer = MetricsWriter(writer)
            owned.append(writer)
        return _Resources(policy, store, writer, owned)


@dataclass
class _Resources:
    """One sweep's live view of an :class:`Execution`."""

    policy: ResiliencePolicy
    store: Optional[ResultCache]
    writer: Optional[MetricsWriter]
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
    started_at: float = 0.0
    #: The backend slot running this task, and that slot's label.
    slot: Optional[object] = None
    worker: Optional[str] = None
    result: Optional[object] = None
    failure: Optional[CellFailure] = None


def execute_cells(
    cells: Sequence[CellSpec],
    jobs: int = 1,
    cache: CacheSpec = None,
    policy: Optional[ResiliencePolicy] = None,
    metrics: MetricsSpec = None,
) -> List[object]:
    """Execute every cell; returns results in the order cells were given.

    Cache hits are resolved up front; only misses are dispatched, and
    each computed cell is stored as it settles.  With ``jobs > 1`` (or a
    cell timeout, which requires pool supervision) the misses are
    supervised over ``jobs`` local slots —
    module-level :func:`compute_cell` plus frozen specs keep the tasks
    picklable under every start method.  The merge is positional, so
    completion order (and therefore ``jobs``) can never reorder or alter
    a grid.

    Under the default policy, behaviour is identical to the
    historical engine: no timeout, the first failure propagates.  With
    ``policy.fail_fast=False`` a failed cell becomes a
    :class:`~repro.experiments.resilience.CellFailure` placeholder at its
    position and the rest of the grid completes.  Each cell is
    dispatched once; rerunning on the same cache computes the failed
    cells again.
    """
    env = Execution(jobs, cache, policy, metrics).resolve()
    policy, store, writer = env.policy, env.store, env.writer

    emit = None
    if writer is not None:
        def emit(spec, key, source, duration, status="ok", kind=None,
                 message=None, worker=None):
            writer.emit(_cell_record(spec, key, source, duration,
                                     status=status, kind=kind,
                                     message=message, worker=worker))

    # Metrics records carry the key even without a cache, so records
    # of any run can be joined on it.
    keyed = store is not None or writer is not None
    keys: Dict[CellSpec, str] = {}

    def key_of(spec: CellSpec) -> Optional[str]:
        if not keyed:
            return None
        key = keys.get(spec)
        if key is None:
            key = keys[spec] = cell_key(spec)
        return key

    results: List[Optional[object]] = [None] * len(cells)
    pending: List[int] = []
    for position, spec in enumerate(cells):
        key = key_of(spec)
        if store is not None:
            hit = store.load(key)
            if hit is not None:
                results[position] = hit
                if emit is not None:
                    emit(spec, key, "cache", 0.0)
                continue
        pending.append(position)

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

    try:
        if pending:
            tasks = [_Task(position=i, spec=cells[i], key=key_of(cells[i]))
                     for i in pending]
            use_pool = (policy.cell_timeout is not None
                        or (jobs > 1 and len(pending) > 1))
            if use_pool:
                local = LocalPoolBackend(max(1, min(jobs, len(pending))))
                try:
                    _run_supervised(tasks, local, policy, emit,
                                    notify=finalize)
                finally:
                    local.close()
            else:
                for task in tasks:
                    _run_inline(task, policy, emit, notify=finalize)
    finally:
        if writer is not None:
            failed = sum(1 for r in results if isinstance(r, CellFailure))
            record = {
                "event": "sweep",
                "cells": len(cells),
                "cache_hits": len(cells) - len(pending),
                "cache_misses": (store.misses
                                 if store is not None else None),
                "computed": len(pending),
                "failed": failed,
                "jobs": jobs,
            }
            if store is not None:
                record["cache"] = dict(store.counters)
            writer.emit(record)
        env.close()
    return results


# ------------------------------------------------------------ inline path

def _run_inline(task: _Task, policy: ResiliencePolicy, emit=None,
                notify: Optional[Callable[["_Task"], None]] = None) -> None:
    """Serial execution of one task; no timeout enforcement.

    Used for ``jobs == 1``.  Injected crash/hang faults are downgraded to
    errors inside
    :func:`~repro.experiments.resilience.inline_execution` so they cannot
    kill or stall the supervising process; a *real* crash in inline mode
    necessarily takes the process down — that is the nature of inline.
    """
    start = time.monotonic()
    try:
        with inline_execution():
            task.result = compute_cell(task.spec)
    except Exception as error:
        message = f"{type(error).__name__}: {error}"
        if emit is not None:
            emit(task.spec, task.key, "computed", time.monotonic() - start,
                 status="failed", kind=FailureKind.ERROR.value,
                 message=message, worker="inline")
        if policy.fail_fast:
            raise
        task.failure = CellFailure(spec=task.spec, kind=FailureKind.ERROR,
                                   message=message)
    else:
        if emit is not None:
            emit(task.spec, task.key, "computed", time.monotonic() - start,
                 worker="inline")
    if notify is not None:
        notify(task)


# -------------------------------------------------------- supervised path

def _pick(slot: object, queue: List[_Task],
          held: Dict[object, Set[Tuple]]) -> Optional[_Task]:
    """The task idle ``slot`` runs next, under trace affinity.

    In order: the first queued task of a trace the slot already holds;
    the first queued task of a trace no slot holds (the slot claims it);
    and only when the slot would otherwise idle, a task of the trace
    with the most queued cells (a steal: the slot generates that trace
    too).  ``held`` maps each live slot to the trace keys it has been
    given.
    """
    mine = held[slot]
    for task in queue:
        if task.spec.trace_key in mine:
            return task
    claimed = set().union(*held.values())
    for task in queue:
        if task.spec.trace_key not in claimed:
            return task
    if not queue:
        return None
    queued = Counter(task.spec.trace_key for task in queue)
    return max(queue, key=lambda task: queued[task.spec.trace_key])


def _run_supervised(tasks: List[_Task], backend: LocalPoolBackend,
                    policy: ResiliencePolicy, emit=None,
                    notify: Optional[Callable[[_Task], None]] = None) -> None:
    """Supervisor loop: trace-affine dispatch and deadlines.

    Drives a :class:`~repro.experiments.backends.LocalPoolBackend` one
    cell per slot, giving each idle slot a task by :func:`_pick`.  Each
    task is dispatched once and settles once, with its result or with a
    failure charged to it (raised under fail-fast).  A slot's claims
    last as long as its token: a respawned slot starts with an empty
    trace memo and no claims.  Once no live slot is left and nothing
    runs, every queued task fails ``worker-lost``.
    """
    queue: List[_Task] = list(tasks)
    running: Dict[object, _Task] = {}
    held: Dict[object, Set[Tuple]] = {}

    def settle(task: _Task, kind: FailureKind, message: str,
               error: Optional[BaseException]) -> None:
        """Finalise a failure: raise it, or merge a placeholder."""
        if emit is not None:
            emit(task.spec, task.key, "computed",
                 time.monotonic() - task.started_at, status="failed",
                 kind=kind.value, message=message, worker=task.worker)
        if policy.fail_fast:
            if kind is FailureKind.TIMEOUT:
                raise CellTimeoutError(f"{cell_label(task.spec)}: {message}")
            if isinstance(error, WorkerLostError) \
                    and error.original is not None:
                raise error.original  # the pool's BrokenProcessPool
            raise error
        task.failure = CellFailure(spec=task.spec, kind=kind,
                                   message=message)
        if notify is not None:
            notify(task)

    while queue or running:
        live = backend.slots()
        if not live and not running:
            # No slot could be respawned: nothing can run the rest.
            message = "no live slot left to run the cell"
            for task in queue:
                task.started_at = time.monotonic()
                settle(task, FailureKind.WORKER_LOST, message,
                       WorkerLostError(message))
            return

        # --- dispatch ---------------------------------------------
        held = {slot: held.get(slot, set()) for slot in live}
        busy = {task.slot for task in running.values()}
        for slot in live:
            if slot in busy:
                continue
            task = _pick(slot, queue, held)
            if task is None:
                break
            queue.remove(task)
            # The slot is idle, so the deadline this stamp starts
            # approximates execution start: a queued cell never accrues
            # timeout.
            task.started_at = time.monotonic()
            handle = backend.submit(slot, compute_cell, task.spec)
            if handle is None:  # the slot is dropped; the task waits
                queue.insert(0, task)
                continue
            task.slot, task.worker = slot, backend.describe(handle)
            running[handle] = task
            held[slot].add(task.spec.trace_key)

        if not running:
            continue

        # --- harvest ----------------------------------------------
        for handle in backend.wait(_TICK):
            task = running.pop(handle)
            try:
                task.result = backend.result(handle)
            except WorkerLostError as error:
                settle(task, FailureKind.WORKER_LOST, str(error), error)
            except Exception as error:
                settle(task, FailureKind.ERROR,
                       f"{type(error).__name__}: {error}", error)
            else:
                if emit is not None:
                    emit(task.spec, task.key, "computed",
                         time.monotonic() - task.started_at,
                         worker=task.worker)
                if notify is not None:
                    notify(task)

        # --- deadlines --------------------------------------------
        if policy.cell_timeout is not None:
            now = time.monotonic()
            expired = [(handle, task) for handle, task in running.items()
                       if now >= task.started_at + policy.cell_timeout]
            for handle, task in expired:
                # Abandoning the handle kills its slot's worker; the
                # other slots' cells run on.
                del running[handle]
                backend.forget(handle)
                settle(task, FailureKind.TIMEOUT,
                       f"exceeded {policy.cell_timeout:.3g}s "
                       "wall-clock timeout", None)
