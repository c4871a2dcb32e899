"""Regeneration of every table and figure in the paper's evaluation.

Each ``figN`` / ``tableN`` function runs the required simulations and
returns a small result object with the figure's data plus a ``render()``
method printing the same rows/series the paper reports.  The per-experiment
index in DESIGN.md maps each function to its bench target.

All functions accept ``benchmarks`` and ``num_uops`` so tests and benches
can run reduced versions; defaults reproduce the full suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.accuracy import AccuracyStats
from ..analysis.f1 import RankedF1Profile, merge_profiles
from ..common.statistics import Histogram
from ..core.config import GOLDEN_COVE, LION_COVE, CoreConfig
from ..predictors.base import PredictorSizing
from ..predictors.registry import PREDICTORS, make_predictor, table2_rows
from ..sampling.policy import SamplingPolicy
from ..trace.profiles import suite_names
from ..trace.columns import BYPASS_CODES, OP_CODES
from ..trace.uop import BypassClass, OpClass
from .parallel import CellSpec, Execution
from .reporting import format_percent, render_table
from .resilience import CellFailure
from .runner import DEFAULT_TRACE_LENGTH, default_cache
from .suite import IpcSuiteResult, run_accuracy_suite, run_ipc_suite

__all__ = [
    "fig2_smb_opportunities",
    "table1_configuration",
    "table2_sizes",
    "fig7_ipc_full",
    "fig8_mispredictions",
    "fig9_ipc_mdp_only",
    "fig10_prediction_mix",
    "fig11_ablation",
    "fig12_future_architectures",
    "fig13_table_usage",
    "fig14_f1_ranking",
    "fig15_mascot_opt",
]

def _suite_failures(suite: IpcSuiteResult) -> List[CellFailure]:
    """Flatten an IPC suite's failures[predictor][benchmark] grid."""
    return [failure for per_bench in suite.failures.values()
            for failure in per_bench.values()]


def _accuracy_failures(results: Dict) -> List[CellFailure]:
    """CellFailure placeholders in an accuracy grid (either nesting depth)."""
    failures: List[CellFailure] = []
    for value in results.values():
        if isinstance(value, CellFailure):
            failures.append(value)
        elif isinstance(value, dict):
            failures.extend(_accuracy_failures(value))
    return failures


def _failure_note(failures: Sequence[CellFailure]) -> str:
    """Footer appended by render() when cells were excluded from totals.

    Under ``--keep-going`` an aggregate figure silently computed over a
    partial grid would misreport the paper's numbers; the IPC tables mark
    FAIL cells inline, and this is the equivalent for figures that only
    publish totals or mixes.
    """
    if not failures:
        return ""
    lines = [f"WARNING: {len(failures)} failed cell(s) excluded from "
             "the aggregates above:"]
    lines += [f"  FAILED {failure.describe()}" for failure in failures]
    return "\n".join(lines) + "\n"


def _sampling_note(meta: Dict) -> str:
    """Footer describing how a sampled figure's values were produced."""
    policy = meta.get("policy", {})
    return (
        f"sampled simulation: interval={policy.get('interval_length')} "
        f"uops, k<={policy.get('max_k')}, "
        f"warmup={policy.get('warmup_intervals')} interval(s); values are "
        f"reconstructions; +- denotes the "
        f"{100 * float(meta.get('confidence', 0)):.0f}% confidence "
        "half-width\n"
    )


_SMB_BUCKETS = ("DirectBypass", "NoOffset", "Offset", "MDP Only")
_CLASS_TO_BUCKET = {
    BypassClass.DIRECT: "DirectBypass",
    BypassClass.NO_OFFSET: "NoOffset",
    BypassClass.OFFSET: "Offset",
    BypassClass.MDP_ONLY: "MDP Only",
}


# --------------------------------------------------------------------- Fig. 2

@dataclass
class Fig2Result:
    """Per-benchmark SMB-opportunity histograms as % of executed loads."""

    percentages: Dict[str, Dict[str, float]]  # bench -> bucket -> %

    def render(self) -> str:
        rows = [
            [bench] + [f"{per[b]:.1f}" for b in _SMB_BUCKETS]
            + [f"{sum(per.values()):.1f}"]
            for bench, per in self.percentages.items()
        ]
        return render_table(
            ["benchmark", *_SMB_BUCKETS, "total"], rows,
            title="Fig. 2 — loads with a prior-store dependence, "
                  "by bypass class (% of loads)",
        )


def fig2_smb_opportunities(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
) -> Fig2Result:
    """Histogram the loads' dependence classes from the trace columns (no
    predictor needed, no micro-op object built)."""
    benchmarks = list(benchmarks) if benchmarks is not None else suite_names()
    cache = default_cache()
    percentages: Dict[str, Dict[str, float]] = {}
    for bench in benchmarks:
        cols = cache.get(bench, num_uops).columns
        bypass = cols.bypass[cols.op == OP_CODES[OpClass.LOAD]]
        counts = np.bincount(bypass, minlength=len(BYPASS_CODES))
        histogram = Histogram(_SMB_BUCKETS)
        for bypass_class, bucket in _CLASS_TO_BUCKET.items():
            histogram.add(bucket, int(counts[BYPASS_CODES[bypass_class]]))
        percentages[bench] = histogram.percentages(denominator=len(bypass))
    return Fig2Result(percentages=percentages)


# -------------------------------------------------------------------- Table I

@dataclass
class Table1Result:
    rows: Dict[str, str]
    config_name: str

    def render(self) -> str:
        return render_table(
            ["parameter", "value"],
            list(self.rows.items()),
            title=f"Table I — system configuration ({self.config_name})",
        )


def table1_configuration(config: CoreConfig = GOLDEN_COVE) -> Table1Result:
    """Render the modelled core's Table I parameter rows."""
    return Table1Result(rows=config.summary(), config_name=config.name)


# ------------------------------------------------------------------- Table II

@dataclass
class Table2Result:
    rows: List[PredictorSizing]

    def render(self) -> str:
        table_rows = []
        for sizing in self.rows:
            fields = ", ".join(
                f"{bits}b {name}" for name, bits in
                sizing.fields_per_entry.items()
            )
            table_rows.append([
                sizing.name, sizing.tables, sizing.total_entries,
                fields, f"{sizing.kib:.2f}",
            ])
        return render_table(
            ["predictor", "tables", "entries", "fields per entry", "KiB"],
            table_rows,
            title="Table II — configuration and storage of the evaluated "
                  "predictors",
        )


def table2_sizes() -> Table2Result:
    """Recompute Table II's storage budgets for every predictor."""
    return Table2Result(rows=table2_rows())


# --------------------------------------------------------- IPC figures (7, 9)

@dataclass
class IpcFigureResult:
    """Normalised-IPC comparison across predictors (Figs. 7, 9, 11, 15)."""

    title: str
    suite: IpcSuiteResult
    predictors: List[str]

    @property
    def failures(self) -> List[CellFailure]:
        """Cells that never completed (rendered FAIL in the table)."""
        return _suite_failures(self.suite)

    def normalised(self, predictor: str) -> Dict[str, float]:
        return self.suite.normalised(predictor)

    def geomean(self, predictor: str) -> float:
        return self.suite.geomean(predictor)

    def sampling_metadata(self, predictor: str, bench: str) -> Optional[Dict]:
        """Reconstruction metadata of one cell; None for full-trace runs."""
        stats = self.suite.stats.get(predictor, {}).get(bench)
        return getattr(stats, "sampling", None)

    def _relative_ci(self, predictor: str, bench: str) -> Optional[float]:
        """Relative CI half-width of one cell's reconstructed IPC."""
        meta = self.sampling_metadata(predictor, bench)
        if meta is None:
            return None
        lo, hi = meta["ci"]
        estimate = float(meta.get("estimate") or 0.0)
        if estimate <= 0.0:
            return None
        return (float(hi) - float(lo)) / 2.0 / estimate

    def render(self) -> str:
        normalised = {p: self.suite.normalised(p) for p in self.predictors}
        sampled_meta: Optional[Dict] = None
        rows = []
        # The requested benchmark order: a bench whose cells all failed
        # still gets its FAIL row.
        for bench in self.suite.benchmarks:
            row = [bench]
            for predictor in self.predictors:
                value = normalised[predictor].get(bench)
                if value is None:
                    row.append("FAIL")
                    continue
                # Normalised cells divide two reconstructed IPCs; their
                # relative half-widths add (first-order, conservative).
                rel = self._relative_ci(predictor, bench)
                rel_base = self._relative_ci(self.suite.baseline, bench)
                if rel is None or rel_base is None:
                    row.append(f"{value:.4f}")
                else:
                    sampled_meta = self.sampling_metadata(predictor, bench)
                    row.append(f"{value:.4f}+-{value * (rel + rel_base):.4f}")
            rows.append(row)
        geo = ["geomean"] + [
            f"{self.suite.geomean(p):.4f}" for p in self.predictors
        ]
        rows.append(geo)
        table = render_table(
            ["benchmark", *self.predictors], rows, title=self.title,
        )
        if sampled_meta is not None:
            table += _sampling_note(sampled_meta)
        return table


def fig7_ipc_full(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    execution: Execution = Execution(),
    sampling: Optional[SamplingPolicy] = None,
) -> IpcFigureResult:
    """NoSQ vs PHAST vs MASCOT (MDP+SMB), normalised to perfect MDP.

    ``sampling`` runs every cell sampled; the rendered table then carries
    per-cell confidence half-widths and a methodology footer (the values
    are reconstructions, not full replays).
    """
    predictors = ["nosq", "phast", "mascot"]
    suite = run_ipc_suite(predictors, benchmarks, num_uops,
                          execution=execution, sampling=sampling)
    return IpcFigureResult(
        title="Fig. 7 — IPC normalised to perfect MDP (no SMB)",
        suite=suite, predictors=predictors,
    )


def fig9_ipc_mdp_only(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    execution: Execution = Execution(),
    sampling: Optional[SamplingPolicy] = None,
) -> IpcFigureResult:
    """Store Sets vs PHAST vs MDP-only MASCOT, normalised to perfect MDP."""
    predictors = ["store-sets", "phast", "mascot-mdp"]
    suite = run_ipc_suite(predictors, benchmarks, num_uops,
                          execution=execution, sampling=sampling)
    return IpcFigureResult(
        title="Fig. 9 — MDP-only IPC normalised to perfect MDP",
        suite=suite, predictors=predictors,
    )


# --------------------------------------------------------------------- Fig. 8

@dataclass
class Fig8Result:
    """Total mispredictions and their false-dep / speculative split."""

    totals: Dict[str, int]
    false_dependencies: Dict[str, int]
    speculative_errors: Dict[str, int]
    #: Cells excluded from the totals (--keep-going partial grids).
    failures: List[CellFailure] = field(default_factory=list)
    #: Reconstruction metadata of one sampled cell (None for full runs);
    #: its presence means every count above is a scaled estimate.
    sampling: Optional[Dict] = None

    def reduction_vs(self, predictor: str, other: str) -> float:
        """Percent reduction in total mispredictions of predictor vs other."""
        if self.totals[other] == 0:
            return 0.0
        return 100.0 * (1.0 - self.totals[predictor] / self.totals[other])

    def render(self) -> str:
        rows = [
            [name, self.totals[name], self.false_dependencies[name],
             self.speculative_errors[name]]
            for name in self.totals
        ]
        table = render_table(
            ["predictor", "total mispredictions", "false dependencies",
             "speculative errors"],
            rows,
            title="Fig. 8 — mispredictions across all benchmarks",
        ) + _failure_note(self.failures)
        if self.sampling is not None:
            table += _sampling_note(self.sampling)
        return table


def fig8_mispredictions(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    predictors: Sequence[str] = ("nosq", "phast", "mascot"),
    execution: Execution = Execution(),
    sampling: Optional[SamplingPolicy] = None,
) -> Fig8Result:
    """Total mispredictions and the false-dep/speculative split (Fig. 8)."""
    results = run_accuracy_suite(list(predictors), benchmarks, num_uops,
                                 execution=execution, sampling=sampling)
    totals: Dict[str, int] = {}
    false_deps: Dict[str, int] = {}
    spec_errors: Dict[str, int] = {}
    sampled_meta: Optional[Dict] = None
    for name, per_bench in results.items():
        merged = AccuracyStats()
        for run in per_bench.values():
            if isinstance(run, CellFailure):
                continue
            merged.merge(run.accuracy)
            if run.sampling is not None:
                sampled_meta = run.sampling
        totals[name] = merged.mispredictions
        false_deps[name] = merged.false_dependencies
        spec_errors[name] = merged.speculative_errors
    return Fig8Result(totals=totals, false_dependencies=false_deps,
                      speculative_errors=spec_errors,
                      failures=_accuracy_failures(results),
                      sampling=sampled_meta)


# -------------------------------------------------------------------- Fig. 10

@dataclass
class Fig10Result:
    """Per-benchmark prediction-type and misprediction-type mixes."""

    prediction_mix: Dict[str, Dict[str, float]]     # bench -> kind -> %
    misprediction_mix: Dict[str, Dict[str, float]]  # bench -> kind -> %
    #: Cells excluded from the mixes (--keep-going partial grids).
    failures: List[CellFailure] = field(default_factory=list)

    def render(self) -> str:
        kinds = ["no_dep", "mdp", "smb"]
        rows = []
        for bench in self.prediction_mix:
            pred = self.prediction_mix[bench]
            mis = self.misprediction_mix[bench]
            rows.append(
                [bench]
                + [f"{pred[k]:.1f}" for k in kinds]
                + [f"{mis[k]:.1f}" for k in kinds]
            )
        return render_table(
            ["benchmark", "pred:no_dep%", "pred:mdp%", "pred:smb%",
             "mis:no_dep%", "mis:mdp%", "mis:smb%"],
            rows,
            title="Fig. 10 — MASCOT prediction and misprediction type "
                  "distributions",
        ) + _failure_note(self.failures)


def fig10_prediction_mix(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    execution: Execution = Execution(),
) -> Fig10Result:
    """MASCOT's prediction and misprediction type mixes (Fig. 10)."""
    results = run_accuracy_suite(["mascot"], benchmarks, num_uops,
                                 execution=execution)["mascot"]
    prediction_mix: Dict[str, Dict[str, float]] = {}
    misprediction_mix: Dict[str, Dict[str, float]] = {}
    for bench, run in results.items():
        if isinstance(run, CellFailure):
            continue
        acc = run.accuracy
        total = max(acc.loads, 1)
        prediction_mix[bench] = {
            kind.value: 100.0 * count / total
            for kind, count in acc.prediction_counts.items()
        }
        mix = acc.misprediction_mix()
        mis_total = max(sum(mix.values()), 1)
        misprediction_mix[bench] = {
            kind.value: 100.0 * count / mis_total
            for kind, count in mix.items()
        }
    return Fig10Result(prediction_mix=prediction_mix,
                       misprediction_mix=misprediction_mix,
                       failures=_accuracy_failures(results))


# -------------------------------------------------------------------- Fig. 11

@dataclass
class Fig11Result:
    """MASCOT vs the TAGE-like predictor without non-dependence entries."""

    ipc: IpcSuiteResult
    false_dependencies: Dict[str, int]
    #: Cells excluded from the IPC grid or the false-dependency totals.
    failures: List[CellFailure] = field(default_factory=list)

    @property
    def false_dep_ratio(self) -> float:
        """How many times more false dependencies the ablation has."""
        mascot = max(self.false_dependencies.get("mascot", 0), 1)
        return self.false_dependencies.get("tage-no-nd", 0) / mascot

    def render(self) -> str:
        lines = [
            "Fig. 11 — MASCOT vs TAGE-like without non-dependence "
            "allocation",
        ]
        for name in ("mascot", "mascot-mdp", "tage-no-nd", "tage-no-nd-mdp"):
            lines.append(
                f"  {name:16s} geomean IPC vs perfect MDP: "
                f"{format_percent(self.ipc.geomean(name))}"
            )
        lines.append(
            f"  false dependencies: mascot="
            f"{self.false_dependencies.get('mascot', 0)}, "
            f"tage-no-nd={self.false_dependencies.get('tage-no-nd', 0)} "
            f"({self.false_dep_ratio:.1f}x)"
        )
        return "\n".join(lines) + "\n" + _failure_note(self.failures)


def fig11_ablation(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    execution: Execution = Execution(),
) -> Fig11Result:
    """MASCOT vs the no-non-dependence TAGE ablation (Fig. 11)."""
    predictors = ["mascot", "mascot-mdp", "tage-no-nd", "tage-no-nd-mdp"]
    ipc = run_ipc_suite(predictors, benchmarks, num_uops,
                        execution=execution)
    accuracy = run_accuracy_suite(["mascot", "tage-no-nd"], benchmarks,
                                  num_uops, execution=execution)
    false_deps: Dict[str, int] = {}
    for name, per_bench in accuracy.items():
        false_deps[name] = sum(
            run.accuracy.false_dependencies for run in per_bench.values()
            if not isinstance(run, CellFailure)
        )
    return Fig11Result(ipc=ipc, false_dependencies=false_deps,
                       failures=(_suite_failures(ipc)
                                 + _accuracy_failures(accuracy)))


# -------------------------------------------------------------------- Fig. 12

@dataclass
class Fig12Result:
    """Golden Cove vs Lion Cove: MASCOT and the perfect MDP+SMB ceiling."""

    #: geomean IPC over perfect MDP, keyed [core][predictor].
    geomeans: Dict[str, Dict[str, float]]
    #: Cells excluded from the geomeans (--keep-going partial grids).
    failures: List[CellFailure] = field(default_factory=list)

    def render(self) -> str:
        rows = []
        for core, values in self.geomeans.items():
            for predictor, value in values.items():
                rows.append([core, predictor, format_percent(value)])
        return render_table(
            ["core", "predictor", "IPC vs perfect MDP"],
            rows,
            title="Fig. 12 — MASCOT and the perfect MDP+SMB ceiling on "
                  "larger cores",
        ) + _failure_note(self.failures)


def fig12_future_architectures(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    cores: Sequence[CoreConfig] = (GOLDEN_COVE, LION_COVE),
    execution: Execution = Execution(),
) -> Fig12Result:
    """MASCOT and the SMB ceiling on larger cores (Fig. 12)."""
    predictors = ["perfect-mdp-smb", "mascot"]
    geomeans: Dict[str, Dict[str, float]] = {}
    failures: List[CellFailure] = []
    for core in cores:
        suite = run_ipc_suite(predictors, benchmarks, num_uops, config=core,
                              execution=execution)
        geomeans[core.name] = {p: suite.geomean(p) for p in predictors}
        failures.extend(_suite_failures(suite))
    return Fig12Result(geomeans=geomeans, failures=failures)


# -------------------------------------------------------------------- Fig. 13

@dataclass
class Fig13Result:
    """Share of predictions served by each MASCOT table (plus base)."""

    #: per_table[t] = % of all predictions; the final element is the base.
    shares: List[float]
    labels: List[str]
    #: Cells excluded from the shares (--keep-going partial grids).
    failures: List[CellFailure] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            [label, f"{share:.2f}"]
            for label, share in zip(self.labels, self.shares)
        ]
        return render_table(
            ["source", "% of predictions"], rows,
            title="Fig. 13 — distribution of predictions per MASCOT table",
        ) + _failure_note(self.failures)


def fig13_table_usage(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    execution: Execution = Execution(),
) -> Fig13Result:
    """Share of predictions served by each MASCOT table (Fig. 13)."""
    # warmup=0: every prediction of the run counts, as the figure's
    # per-table shares are a property of the whole replay.  telemetry=True:
    # the shares come from the observability layer's provider-hit counters
    # (which a consistency test pins to the predictor's own
    # predictions_per_table), not from ad-hoc figure bookkeeping.
    results = run_accuracy_suite(["mascot"], benchmarks, num_uops,
                                 warmup=0, execution=execution,
                                 telemetry=True)["mascot"]
    totals: List[int] = []
    for run in results.values():
        if isinstance(run, CellFailure):
            continue
        counts = [int(c) for c in run.telemetry["provider_hits"]]
        # Telemetry slots grow lazily, so per-benchmark lists may differ
        # in length; pad before summing (zip would silently truncate).
        if len(counts) > len(totals):
            totals.extend([0] * (len(counts) - len(totals)))
        for t, count in enumerate(counts):
            totals[t] += count
    assert totals
    grand = max(sum(totals), 1)
    shares = [100.0 * c / grand for c in totals]
    labels = [f"table {t + 1}" for t in range(len(totals) - 1)] + ["base"]
    return Fig13Result(shares=shares, labels=labels,
                       failures=_accuracy_failures(results))


# -------------------------------------------------------------------- Fig. 14

@dataclass
class Fig14Result:
    """Rank-ordered mean F1 per table, averaged across benchmarks."""

    profile: RankedF1Profile
    #: Cells excluded from the merged profile (--keep-going partial grids).
    failures: List[CellFailure] = field(default_factory=list)

    #: Log-spaced ranks sampled by render(): the useful-entry mass sits in
    #: the first few dozen ranks, so linear sampling would show only zeros.
    RENDER_RANKS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

    def render(self) -> str:
        rows = []
        for t, scores in enumerate(self.profile.ranked):
            sampled = [
                f"{scores[r]:.3f}" for r in self.RENDER_RANKS
                if r < len(scores)
            ]
            rows.append([f"table {t + 1}", len(scores), " ".join(sampled)])
        ranks = " ".join(str(r) for r in self.RENDER_RANKS)
        return render_table(
            ["table", "entries", f"mean F1 at ranks [{ranks}]"],
            rows,
            title="Fig. 14 — F1 scores of entries ranked within each table",
        ) + _failure_note(self.failures)


def fig14_f1_ranking(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    period_loads: int = 20_000,
    execution: Execution = Execution(),
) -> Fig14Result:
    """Rank-ordered per-entry F1 scores, averaged over benchmarks (Fig. 14)."""
    benchmarks = list(benchmarks) if benchmarks is not None else suite_names()
    cells = [
        CellSpec(mode="accuracy", benchmark=bench, num_uops=num_uops,
                 predictor=PREDICTORS["mascot"].with_(track_f1=True),
                 f1_period=period_loads)
        for bench in benchmarks
    ]
    profiles: List[RankedF1Profile] = []
    failures: List[CellFailure] = []
    for result in execution.run(cells):
        if isinstance(result, CellFailure):
            failures.append(result)
            continue
        assert result.f1_profile is not None
        profiles.append(result.f1_profile)
    return Fig14Result(profile=merge_profiles(profiles), failures=failures)


# -------------------------------------------------------------------- Fig. 15

@dataclass
class Fig15Result:
    """MASCOT-OPT and tag-reduced variants: IPC delta vs size."""

    #: predictor -> (geomean IPC vs default MASCOT, size KiB)
    points: Dict[str, tuple]
    #: Cells excluded from the geomeans (--keep-going partial grids).
    failures: List[CellFailure] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            [name, format_percent(ratio), f"{kib:.2f}"]
            for name, (ratio, kib) in self.points.items()
        ]
        return render_table(
            ["predictor", "IPC vs MASCOT", "size (KiB)"], rows,
            title="Fig. 15 — area-optimised MASCOT variants",
        ) + _failure_note(self.failures)


def fig15_mascot_opt(
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = DEFAULT_TRACE_LENGTH,
    execution: Execution = Execution(),
) -> Fig15Result:
    """Area-optimised MASCOT variants: IPC delta vs storage (Fig. 15)."""
    predictors = ["mascot", "mascot-opt", "mascot-opt-tag2",
                  "mascot-opt-tag4", "mascot-opt-tag6"]
    suite = run_ipc_suite(predictors, benchmarks, num_uops,
                          baseline="mascot", execution=execution)
    points = {
        name: (suite.geomean(name), make_predictor(name).storage_kib)
        for name in predictors
    }
    return Fig15Result(points=points, failures=_suite_failures(suite))
