"""Suite orchestration: sweep (benchmark × predictor) and summarise.

The paper's evaluation grid is a set of predictors run over the SPEC
CPU2017 stand-in suite, with IPC normalised per benchmark to a perfect-MDP
run of the *same* trace on the *same* core.  :func:`run_ipc_suite` and
:func:`run_accuracy_suite` produce those grids from registered names or
:class:`~repro.predictors.registry.PredictorSpec` values, keyed by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..common.statistics import geometric_mean, normalise
from ..core.config import GOLDEN_COVE, CoreConfig
from ..core.stats import PipelineStats
from ..predictors.registry import (
    PREDICTORS,
    PredictorSpec,
    make_predictor,
    predictor_spec,
)
from ..sampling.policy import SamplingPolicy
from ..trace.profiles import suite_names
from .parallel import CellSpec, Execution
from .resilience import CellFailure
from .runner import DEFAULT_TRACE_LENGTH, PredictionRunResult

__all__ = [
    "PREDICTORS",
    "make_predictor",
    "IpcSuiteResult",
    "run_ipc_suite",
    "run_accuracy_suite",
]


def _specs(predictors: Sequence[Union[str, PredictorSpec]]
           ) -> List[PredictorSpec]:
    """Resolve names to specs; grids are keyed by name, so names differ."""
    specs = [predictor_spec(p) for p in predictors]
    if len({spec.name for spec in specs}) != len(specs):
        raise ValueError("predictor names must be distinct")
    return specs


@dataclass
class IpcSuiteResult:
    """IPC grid with normalisation helpers.

    Under ``--keep-going`` a cell that failed is absent from
    ``ipc``/``stats`` and recorded in ``failures`` instead; the helpers
    operate on the benchmarks both sides of a comparison actually have, so
    a partial grid still summarises (the geomean of an empty intersection
    is ``nan``, never an exception).
    """

    #: ipc[predictor][benchmark]
    ipc: Dict[str, Dict[str, float]]
    #: Full pipeline stats for every run (same key structure).
    stats: Dict[str, Dict[str, PipelineStats]]
    baseline: str
    #: failures[predictor][benchmark] for cells that never completed.
    failures: Dict[str, Dict[str, CellFailure]] = field(default_factory=dict)
    #: The benchmark order the suite was requested with (including benches
    #: where every predictor failed).
    benchmarks: List[str] = field(default_factory=list)

    def normalised(self, predictor: str) -> Dict[str, float]:
        """Per-benchmark IPC relative to the baseline predictor.

        Restricted to benchmarks where both the predictor and the baseline
        completed.
        """
        base = self.ipc[self.baseline]
        mine = {b: v for b, v in self.ipc[predictor].items() if b in base}
        return normalise(mine, base)

    def geomean(self, predictor: str) -> float:
        values = self.normalised(predictor).values()
        if not values:
            return float("nan")
        return geometric_mean(values)

    def geomean_speedup_over(self, predictor: str, other: str) -> float:
        """Geomean of per-benchmark IPC ratios predictor/other, in percent."""
        ratios = [
            self.ipc[predictor][b] / self.ipc[other][b]
            for b in self.ipc[predictor]
            if b in self.ipc[other]
        ]
        if not ratios:
            return float("nan")
        return 100.0 * (geometric_mean(ratios) - 1.0)


def run_ipc_suite(
    predictors: Sequence[Union[str, PredictorSpec]],
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    config: CoreConfig = GOLDEN_COVE,
    baseline: str = "perfect-mdp",
    verbose: bool = False,
    execution: Execution = Execution(),
    sampling: Optional[SamplingPolicy] = None,
) -> IpcSuiteResult:
    """Timing-mode sweep; the baseline is added automatically if missing.

    ``execution`` says how the (benchmark × predictor) cells run —
    processes, result cache, fault tolerance and metrics (see
    :class:`~repro.experiments.parallel.Execution`).  The grid is
    bit-identical for every ``jobs`` value and cache state.  Cells run
    the batched engine, which the golden equivalence tier proves
    bit-identical to the scalar reference pipeline.

    ``sampling`` runs every cell sampled under the given policy: only the
    selected regions are simulated and each cell's stats carry
    reconstruction metadata with confidence intervals (see
    :mod:`repro.sampling`).  Reconstructed values are estimates — the
    suite is no longer bit-identical to the full-trace sweep, which is
    the point.
    """
    specs = _specs(predictors)
    if baseline not in [spec.name for spec in specs]:
        specs.insert(0, predictor_spec(baseline))
    benchmarks = list(benchmarks) if benchmarks is not None else suite_names()

    cells = [
        CellSpec(mode="timing", benchmark=bench, num_uops=num_uops,
                 predictor=spec, config=config, sampling=sampling)
        for bench in benchmarks for spec in specs
    ]

    ipc: Dict[str, Dict[str, float]] = {s.name: {} for s in specs}
    stats: Dict[str, Dict[str, PipelineStats]] = {s.name: {} for s in specs}
    failures: Dict[str, Dict[str, CellFailure]] = {}
    for cell, result in zip(cells, execution.run(cells)):
        bench, name = cell.benchmark, cell.predictor.name
        if isinstance(result, CellFailure):
            failures.setdefault(name, {})[bench] = result
            if verbose:
                print(f"  {bench:12s} {name:16s} FAILED "
                      f"({result.kind.value})")
            continue
        ipc[name][bench] = result.ipc
        stats[name][bench] = result
        if verbose:
            print(f"  {bench:12s} {name:16s} IPC={result.ipc:.3f}")
    return IpcSuiteResult(ipc=ipc, stats=stats, baseline=baseline,
                          failures=failures, benchmarks=benchmarks)


def run_accuracy_suite(
    predictors: Sequence[Union[str, PredictorSpec]],
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    verbose: bool = False,
    warmup: Optional[int] = None,
    execution: Execution = Execution(),
    telemetry: bool = False,
    sampling: Optional[SamplingPolicy] = None,
) -> Dict[str, Dict[str, PredictionRunResult]]:
    """Prediction-only sweep: results[predictor][benchmark].

    ``warmup`` defaults to a quarter of the trace: predictors train on it
    but it is excluded from the statistics (steady-state measurement, as
    the paper's warmed SimPoints provide).  ``execution`` behaves as in
    :func:`run_ipc_suite`.  Under ``--keep-going`` a failed cell's value
    is its :class:`~repro.experiments.resilience.CellFailure` placeholder;
    aggregating callers skip those with an ``isinstance`` check.
    ``telemetry`` attaches per-table counting sinks (Fig. 13); the
    counters come back in each result's ``telemetry`` dict.

    ``sampling`` replays only the policy's selected regions per cell and
    scales the accuracy counts back to the full trace (incompatible with
    ``warmup`` and ``telemetry``; warmup of sampled runs comes from the
    policy's ``warmup_intervals``).
    """
    if sampling is not None:
        warmup = 0  # telemetry is refused by the sampled cells
    elif warmup is None:
        warmup = num_uops // 4
    benchmarks = list(benchmarks) if benchmarks is not None else suite_names()

    specs = _specs(predictors)
    cells = [
        CellSpec(mode="accuracy", benchmark=bench, num_uops=num_uops,
                 predictor=spec, warmup=warmup, telemetry=telemetry,
                 sampling=sampling)
        for bench in benchmarks for spec in specs
    ]

    results: Dict[str, Dict[str, PredictionRunResult]] = {
        s.name: {} for s in specs}
    for cell, result in zip(cells, execution.run(cells)):
        bench, name = cell.benchmark, cell.predictor.name
        results[name][bench] = result
        if verbose:
            if isinstance(result, CellFailure):
                print(f"  {bench:12s} {name:16s} FAILED "
                      f"({result.kind.value})")
                continue
            print(f"  {bench:12s} {name:16s} "
                  f"mispred={result.accuracy.mispredictions}")
    return results
