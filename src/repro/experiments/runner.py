"""Single-run drivers: prediction-only replay and full timing simulation.

Two evaluation modes (DESIGN.md §5):

* :func:`run_prediction_only` replays a trace through a predictor in
  program order — predict at decode, train at commit, history hooks on
  every branch — and classifies every load.  Fast; used for the accuracy
  figures (2, 8, 10, 13, 14).
* :func:`run_timing` runs the full out-of-order pipeline for IPC
  (figures 7, 9, 11, 12, 15).

Traces are cached per (benchmark, length, seeds, windows) so a suite sweep
over many predictors generates each trace once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.accuracy import OUTCOME_BY_CODE, AccuracyStats
from ..analysis.f1 import F1Recorder, RankedF1Profile
from ..core.config import GOLDEN_COVE, CoreConfig
from ..core.pipeline import Pipeline
from ..core.stats import PipelineStats
from ..predictors.base import PRED_KIND_BY_CODE, MDPredictor
from ..predictors.mascot import Mascot
from ..sampling.policy import SamplingPolicy
from ..trace.columns import BYPASS_CODES
from ..trace.generator import generate_trace
from ..trace.uop import MicroOp, OpClass

__all__ = [
    "TraceCache",
    "PredictionRunResult",
    "run_prediction_only",
    "run_timing",
    "DEFAULT_TRACE_LENGTH",
    "TIMING_ENGINES",
]

#: Default dynamic trace length per benchmark.  Chosen so a full-suite,
#: all-predictor sweep completes in minutes in pure Python while giving the
#: predictors thousands of dynamic instances per static load.
DEFAULT_TRACE_LENGTH = 80_000


class TraceCache:
    """Memoises generated traces keyed by all generation parameters."""

    def __init__(self) -> None:
        self._traces: Dict[Tuple, List[MicroOp]] = {}

    def get(
        self,
        benchmark: str,
        num_uops: int,
        program_seed: int = 0,
        trace_seed: int = 1,
        store_window: int = 114,
        instr_window: int = 512,
    ) -> List[MicroOp]:
        key = (benchmark, num_uops, program_seed, trace_seed,
               store_window, instr_window)
        trace = self._traces.get(key)
        if trace is None:
            trace = generate_trace(
                benchmark, num_uops,
                program_seed=program_seed, trace_seed=trace_seed,
                store_window=store_window, instr_window=instr_window,
            )
            self._traces[key] = trace
        return trace

    def clear(self) -> None:
        self._traces.clear()


#: Process-wide default cache used by the figure generators.  Safe across
#: pool workers: entries are pure functions of their generation-parameter
#: keys, so per-worker copies can only agree.
# repro-lint: allow(conc-mutable-global) -- content-keyed trace memo, entries are pure functions of the key
_GLOBAL_CACHE = TraceCache()


def default_cache() -> TraceCache:
    return _GLOBAL_CACHE


@dataclass
class PredictionRunResult:
    """Everything a prediction-only replay produces."""

    accuracy: AccuracyStats
    #: Predictions per source table for TAGE-like predictors (Fig. 13);
    #: empty for predictors without tables.
    predictions_per_table: List[int] = field(default_factory=list)
    #: Ranked F1 profile when an :class:`F1Recorder` was attached (Fig. 14).
    f1_profile: Optional[RankedF1Profile] = None
    #: Per-table telemetry counters (``TableTelemetry.to_dict``) when the
    #: run was made with ``telemetry=True``; None otherwise.
    telemetry: Optional[dict] = None
    #: Sampled-reconstruction metadata (see
    #: :mod:`repro.sampling.reconstruct`); None for full-trace runs.  When
    #: set, the accuracy counts are full-run estimates scaled from the
    #: measured regions.
    sampling: Optional[dict] = None

    # -- serialisation (on-disk result cache) ----------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`."""
        data = {
            "accuracy": self.accuracy.to_dict(),
            "predictions_per_table": list(self.predictions_per_table),
            "f1_profile": (self.f1_profile.to_dict()
                           if self.f1_profile is not None else None),
            "telemetry": self.telemetry,
        }
        if self.sampling is not None:
            data["sampling"] = self.sampling
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PredictionRunResult":
        profile = data.get("f1_profile")
        telemetry = data.get("telemetry")
        sampling = data.get("sampling")
        return cls(
            accuracy=AccuracyStats.from_dict(data["accuracy"]),
            predictions_per_table=[int(c)
                                   for c in data["predictions_per_table"]],
            f1_profile=(RankedF1Profile.from_dict(profile)
                        if profile is not None else None),
            telemetry=dict(telemetry) if telemetry is not None else None,
            sampling=dict(sampling) if sampling is not None else None,
        )


def run_prediction_only(
    trace: Sequence[MicroOp],
    predictor: Optional[MDPredictor],
    f1_period: Optional[int] = None,
    warmup: int = 0,
    telemetry: bool = False,
    sampling: Optional[SamplingPolicy] = None,
    predictor_factory: Optional[Callable[[], MDPredictor]] = None,
) -> PredictionRunResult:
    """Replay ``trace`` through ``predictor`` and classify every load.

    ``warmup`` micro-ops at the head of the trace train the predictor but
    are excluded from the accuracy statistics — the paper measures warmed
    SimPoint regions, and cold-start allocations would otherwise dominate
    short synthetic traces.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.TableTelemetry`
    sink to the predictor for the duration of the run; the counters are
    returned in :attr:`PredictionRunResult.telemetry`.

    ``sampling`` switches to sampled replay of the policy's selected
    regions with full-run reconstruction (see
    :func:`repro.sampling.reconstruct.run_sampled_prediction`); it
    requires ``predictor_factory`` (fresh predictor per region, with
    ``predictor`` passed as None) and is incompatible with ``warmup`` /
    ``f1_period`` / ``telemetry``, which describe one contiguous run.
    """
    if sampling is not None:
        if predictor_factory is None:
            raise ValueError(
                "sampled prediction runs need predictor_factory: each "
                "region is measured with a fresh predictor"
            )
        if warmup or f1_period is not None or telemetry:
            raise ValueError(
                "sampling is incompatible with warmup, f1_period and "
                "telemetry: those describe one contiguous replay"
            )
        from ..sampling.reconstruct import run_sampled_prediction

        return run_sampled_prediction(trace, predictor_factory, sampling)
    if predictor is None:
        raise ValueError("full-trace runs need a predictor instance")
    recorder: Optional[F1Recorder] = None
    if f1_period is not None:
        if not isinstance(predictor, Mascot):
            raise TypeError("F1 recording requires a MASCOT-family predictor")
        recorder = F1Recorder(predictor, period_loads=f1_period)
    sink = None
    if telemetry:
        from ..obs.telemetry import TableTelemetry

        sink = predictor.attach_telemetry(TableTelemetry())

    stats = AccuracyStats()
    # Outcome / prediction-kind tallies by int code (see record_codes).
    outcome_counts = [0] * len(OUTCOME_BY_CODE)
    kind_counts = [0] * len(PRED_KIND_BY_CODE)
    predict_train = predictor.predict_train
    branch_count = 0
    store_branch: Dict[int, int] = {}
    store_pc: Dict[int, int] = {}

    for uop in trace:
        op = uop.op
        if op is OpClass.BRANCH_COND:
            predictor.on_branch(uop.pc, uop.taken)
            branch_count += 1
        elif op is OpClass.BRANCH_INDIRECT:
            predictor.on_indirect(uop.pc, uop.target)
            branch_count += 1
        elif uop.is_store:
            predictor.on_store(uop)
            store_branch[uop.seq] = branch_count
            store_pc[uop.seq] = uop.pc
            if len(store_branch) > 4096:
                _prune(store_branch, uop.seq)
                _prune(store_pc, uop.seq)
        elif uop.is_load:
            branches_between = 0
            pc_of_store = None
            if uop.has_dependence:
                branches_between = branch_count - store_branch.get(
                    uop.dep_store_seq, branch_count
                )
                pc_of_store = store_pc.get(uop.dep_store_seq)
            kind, _, _, _, outcome = predict_train(
                uop, branches_between, pc_of_store, uop.store_distance,
                BYPASS_CODES[uop.bypass],
            )
            if uop.seq >= warmup:
                outcome_counts[outcome] += 1
                kind_counts[kind] += 1
            if recorder is not None:
                recorder.tick()

    stats.record_codes(outcome_counts, kind_counts)
    # The measured-instruction denominator is exactly the post-warmup
    # region.  A warmup covering the whole trace measures nothing:
    # zero instructions, zero loads (not a phantom instruction that
    # would fabricate a non-zero MPKI denominator).
    stats.instructions = max(len(trace) - warmup, 0)
    per_table = list(getattr(predictor, "predictions_per_table", []))
    profile = recorder.finish() if recorder is not None else None
    return PredictionRunResult(
        accuracy=stats,
        predictions_per_table=per_table,
        f1_profile=profile,
        telemetry=sink.to_dict() if sink is not None else None,
    )


def _prune(mapping: Dict[int, int], current_seq: int,
           horizon: int = 2048) -> None:
    """Drop entries too old to matter for in-flight dependence queries.

    Bounded-memory invariant: pruning fires once the map exceeds 4096
    entries and keeps only stores within ``horizon`` (2048) sequence
    numbers, so the map can never regrow past one store per retained
    sequence number — its size is bounded by ``horizon`` right after a
    prune and by 4097 at any instant.

    This is lossless for classification: the trace generator only
    annotates dependencies within ``instr_window`` (default 512 ≪ 2048)
    micro-ops of the load, and :func:`classify` reads the ground truth
    from the load's own annotations, never from these maps.  What a
    pruned store *does* lose is its auxiliary context — the
    ``branches_between`` and ``store_pc`` hints handed to
    ``ActualOutcome`` — which only degrades training heuristics (e.g.
    Store Sets' SSIT updates) for dependencies older than the horizon;
    with default trace windows that case cannot occur.
    """
    dead = [seq for seq in mapping if current_seq - seq > horizon]
    for seq in dead:
        del mapping[seq]


#: Timing-engine registry: ``scalar`` is the reference event-at-a-time
#: pipeline; ``batched`` the two-phase columnar engine proven bit-identical
#: by the golden equivalence tier (tests/equivalence/).
TIMING_ENGINES = ("scalar", "batched")


def run_timing(
    trace: Sequence[MicroOp],
    predictor: Optional[MDPredictor],
    config: CoreConfig = GOLDEN_COVE,
    engine: str = "scalar",
    measure_from: int = 0,
    sampling: Optional[SamplingPolicy] = None,
    predictor_factory: Optional[Callable[[], MDPredictor]] = None,
    hierarchy=None,
) -> PipelineStats:
    """Run the out-of-order timing model; returns its statistics.

    ``engine`` selects the implementation: ``"scalar"`` (the reference
    :class:`~repro.core.pipeline.Pipeline`) or ``"batched"`` (the
    bit-identical :class:`~repro.core.batched.BatchedPipeline`).
    ``measure_from`` designates a warmup prefix excluded from measurement.
    ``hierarchy`` supplies a pre-built (possibly pre-warmed)
    :class:`~repro.memory.hierarchy.MemoryHierarchy` instead of the cold
    default — sampled runs use it for functional cache warmup.

    ``sampling`` switches to sampled simulation: only the policy's
    selected regions are simulated and the returned statistics are a
    full-run reconstruction carrying ``stats.sampling`` metadata (see
    :mod:`repro.sampling.reconstruct`).  Sampled runs need a fresh
    predictor per region, so ``predictor_factory`` is required (and
    ``predictor`` ignored — pass None).
    """
    if engine not in TIMING_ENGINES:
        raise ValueError(
            f"unknown timing engine {engine!r}; known: "
            + ", ".join(TIMING_ENGINES)
        )
    if sampling is not None:
        if predictor_factory is None:
            raise ValueError(
                "sampled timing runs need predictor_factory: each region "
                "is measured with a fresh predictor"
            )
        if measure_from:
            raise ValueError(
                "measure_from and sampling are mutually exclusive: warmup "
                "of sampled runs is governed by the policy's "
                "warmup_intervals"
            )
        from ..sampling.reconstruct import run_sampled_timing

        return run_sampled_timing(
            trace, predictor_factory, sampling,
            config=config, engine=engine,
        ).stats
    if predictor is None:
        raise ValueError("full-trace runs need a predictor instance")
    if engine == "batched":
        from ..core.batched import BatchedPipeline
        return BatchedPipeline(predictor, config=config,
                               hierarchy=hierarchy).run(
            trace, measure_from=measure_from)
    return Pipeline(predictor, config=config, hierarchy=hierarchy).run(
        trace, measure_from=measure_from)
