"""Suite orchestration: sweep (benchmark × predictor) and summarise.

The paper's evaluation grid is a set of predictors run over the SPEC
CPU2017 stand-in suite, with IPC normalised per benchmark to a perfect-MDP
run of the *same* trace on the *same* core.  :func:`run_ipc_suite` and
:func:`run_accuracy_suite` produce those grids; predictor construction goes
through a registry of named factories so figures and benches can request
"mascot" / "phast" / ... uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..common.statistics import geometric_mean, normalise
from ..core.config import GOLDEN_COVE, CoreConfig
from ..core.stats import PipelineStats
from ..predictors.base import MDPredictor
from ..predictors.configs import MASCOT_DEFAULT, MASCOT_OPT, mascot_opt_reduced_tags
from ..predictors.mascot import Mascot
from ..predictors.idist import IDistStoreSets
from ..predictors.nosq import NoSQ
from ..predictors.tage_mdp import TageMdp
from ..predictors.perfect import PerfectMDP, PerfectMDPSMB
from ..predictors.phast import Phast
from ..predictors.store_sets import StoreSets
from ..predictors.tage_nond import TAGE_NO_ND_CONFIG
from ..sampling.policy import SamplingPolicy
from ..trace.profiles import suite_names
from .parallel import CellSpec, Execution
from .resilience import CellFailure
from .runner import DEFAULT_TRACE_LENGTH, PredictionRunResult

__all__ = [
    "PREDICTOR_FACTORIES",
    "make_predictor",
    "IpcSuiteResult",
    "run_ipc_suite",
    "run_accuracy_suite",
]

#: Registry of predictor factories by canonical name.
PREDICTOR_FACTORIES: Dict[str, Callable[[], MDPredictor]] = {
    "perfect-mdp": PerfectMDP,
    "perfect-mdp-smb": PerfectMDPSMB,
    "mascot": lambda: Mascot(MASCOT_DEFAULT),
    "mascot-mdp": lambda: Mascot(
        MASCOT_DEFAULT.with_(name="mascot-mdp", smb_enabled=False)
    ),
    "mascot-opt": lambda: Mascot(MASCOT_OPT),
    "mascot-opt-tag2": lambda: Mascot(mascot_opt_reduced_tags(2)),
    "mascot-opt-tag4": lambda: Mascot(mascot_opt_reduced_tags(4)),
    "mascot-opt-tag6": lambda: Mascot(mascot_opt_reduced_tags(6)),
    "mascot-offset": lambda: Mascot(
        MASCOT_DEFAULT.with_(name="mascot-offset", offset_bypass=True)
    ),
    "mascot-decay": lambda: Mascot(
        MASCOT_DEFAULT.with_(name="mascot-decay", decay_period=50_000)
    ),
    "tage-no-nd": lambda: Mascot(TAGE_NO_ND_CONFIG),
    "tage-no-nd-mdp": lambda: Mascot(
        TAGE_NO_ND_CONFIG.with_(name="tage-no-nd-mdp", smb_enabled=False)
    ),
    "phast": Phast,
    "tage-mdp": TageMdp,
    "idist+store-sets": IDistStoreSets,
    "nosq": NoSQ,
    "store-sets": StoreSets,
}


def make_predictor(name: str) -> MDPredictor:
    """Build a fresh predictor by canonical name."""
    try:
        factory = PREDICTOR_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(PREDICTOR_FACTORIES))
        raise KeyError(f"unknown predictor {name!r}; known: {known}") from None
    return factory()


@dataclass
class IpcSuiteResult:
    """IPC grid with normalisation helpers.

    Under ``--keep-going`` a cell that exhausted its retries is absent from
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
    predictors: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    config: CoreConfig = GOLDEN_COVE,
    baseline: str = "perfect-mdp",
    verbose: bool = False,
    execution: Execution = Execution(),
    engine: str = "scalar",
    sampling: Optional[SamplingPolicy] = None,
) -> IpcSuiteResult:
    """Timing-mode sweep; the baseline is added automatically if missing.

    ``execution`` says how the (benchmark × predictor) cells run —
    processes, result cache, fault tolerance and metrics (see
    :class:`~repro.experiments.parallel.Execution`).  The grid is
    bit-identical for every ``jobs`` value and cache state — and, by the
    golden equivalence tier, for either ``engine`` (``"scalar"`` reference
    pipeline or the faster ``"batched"`` engine).

    ``sampling`` runs every cell sampled under the given policy: only the
    selected regions are simulated and each cell's stats carry
    reconstruction metadata with confidence intervals (see
    :mod:`repro.sampling`).  Reconstructed values are estimates — the
    suite is no longer bit-identical to the full-trace sweep, which is
    the point.
    """
    names = list(predictors)
    if baseline not in names:
        names.insert(0, baseline)
    benchmarks = list(benchmarks) if benchmarks is not None else suite_names()

    cells = [
        CellSpec(mode="timing", benchmark=bench, num_uops=num_uops,
                 predictor=name, config=config,
                 store_window=config.sb_size, instr_window=config.rob_size,
                 engine=engine, sampling=sampling)
        for bench in benchmarks for name in names
    ]
    cell_results = execution.run(cells)

    ipc: Dict[str, Dict[str, float]] = {n: {} for n in names}
    stats: Dict[str, Dict[str, PipelineStats]] = {n: {} for n in names}
    failures: Dict[str, Dict[str, CellFailure]] = {}
    grid = iter(cell_results)
    for bench in benchmarks:
        for name in names:
            result = next(grid)
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
    predictors: Sequence[str],
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
        if telemetry:
            raise ValueError("sampling is incompatible with telemetry")
        warmup = 0
    elif warmup is None:
        warmup = num_uops // 4
    benchmarks = list(benchmarks) if benchmarks is not None else suite_names()

    names = list(predictors)
    cells = [
        CellSpec(mode="accuracy", benchmark=bench, num_uops=num_uops,
                 predictor=name, warmup=warmup, telemetry=telemetry,
                 sampling=sampling)
        for bench in benchmarks for name in names
    ]
    cell_results = execution.run(cells)

    results: Dict[str, Dict[str, PredictionRunResult]] = {
        n: {} for n in names
    }
    grid = iter(cell_results)
    for bench in benchmarks:
        for name in names:
            result = next(grid)
            results[name][bench] = result
            if verbose:
                if isinstance(result, CellFailure):
                    print(f"  {bench:12s} {name:16s} FAILED "
                          f"({result.kind.value})")
                    continue
                acc = result.accuracy
                print(f"  {bench:12s} {name:16s} "
                      f"mispred={acc.mispredictions}")
    return results
