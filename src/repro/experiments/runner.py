"""Single-run drivers: prediction-only replay and full timing simulation.

Two evaluation modes (DESIGN.md §5):

* :func:`run_prediction_only` replays a trace through a predictor in
  program order — predict at decode, train at commit, history hooks on
  every branch — and classifies every load.  Fast; used for the accuracy
  figures (2, 8, 10, 13, 14).  It is the batched engine's Phase A
  without Phase B: the same :class:`~repro.core.batched.PredictorReplay`
  loop over the trace's columns, primed from them as Phase A is, with no
  branch predictor and a store window spanning the trace.
* :func:`run_timing` runs the full out-of-order pipeline, batched, for
  IPC (figures 7, 9, 11, 12, 15).

Traces are cached per (benchmark, length, seeds, windows) so a suite sweep
over many predictors generates each trace once.  The windows are a core's
store buffer and ROB (:func:`trace_key`): a trace is cut for the core it
runs on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.accuracy import AccuracyStats
from ..analysis.f1 import F1Recorder, RankedF1Profile
from ..common.foldplan import prime_inputs
from ..core.batched import BatchedPipeline, PredictorReplay
from ..core.config import GOLDEN_COVE, CoreConfig
from ..core.stats import PipelineStats
from ..predictors.base import MDPredictor
from ..predictors.mascot import Mascot
from ..sampling.policy import SamplingPolicy
from ..trace.columns import Trace
from ..trace.generator import generate_trace

__all__ = [
    "TraceCache",
    "PredictionRunResult",
    "trace_key",
    "run_prediction_only",
    "run_timing",
    "DEFAULT_TRACE_LENGTH",
]

#: Default dynamic trace length per benchmark.  Chosen so a full-suite,
#: all-predictor sweep completes in minutes in pure Python while giving the
#: predictors thousands of dynamic instances per static load.
DEFAULT_TRACE_LENGTH = 80_000


def trace_key(
    benchmark: str,
    num_uops: int,
    program_seed: int = 0,
    trace_seed: int = 1,
    config: CoreConfig = GOLDEN_COVE,
) -> Tuple:
    """Identity of one trace cut for ``config``'s store buffer and ROB:
    :func:`generate_trace`'s arguments, in order."""
    return (benchmark, num_uops, program_seed, trace_seed, config.sb_size,
            config.rob_size)


class TraceCache:
    """Memoises generated traces, and their region selections, by key.

    Traces are keyed by :func:`trace_key`; selections by
    ``(trace_key, policy)``, never by trace identity, so :meth:`clear`
    frees both.
    """

    def __init__(self) -> None:
        self._traces: Dict[Tuple, Trace] = {}
        self._selections: Dict[Tuple, object] = {}

    def get(self, key: Tuple) -> Trace:
        """The trace of a :func:`trace_key`, generated once per cache."""
        if key not in self._traces:
            self._traces[key] = generate_trace(*key)
        return self._traces[key]

    def selection(self, key: Tuple, policy: SamplingPolicy):
        """The regions ``policy`` selects from trace ``key``, computed once
        per cache (every sampled cell of one trace shares them)."""
        selection = self._selections.get((key, policy))
        if selection is None:
            # Looked up where the sampled runners call it, so a wrapped
            # ``reconstruct.select_regions`` sees every selection.
            from ..sampling.reconstruct import select_regions

            selection = select_regions(self.get(key), policy)
            self._selections[(key, policy)] = selection
        return selection

    def clear(self) -> None:
        self._traces.clear()
        self._selections.clear()


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
    trace: Trace,
    predictor: MDPredictor,
    f1_period: Optional[int] = None,
    warmup: int = 0,
    telemetry: bool = False,
) -> PredictionRunResult:
    """Replay ``trace``'s columns through ``predictor`` and classify every
    load.

    ``warmup`` micro-ops at the head of the trace train the predictor but
    are excluded from the accuracy statistics — the paper measures warmed
    SimPoint regions, and cold-start allocations would otherwise dominate
    short synthetic traces.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.TableTelemetry`
    sink to the predictor for the duration of the run; the counters are
    returned in :attr:`PredictionRunResult.telemetry`.

    Sampled replay of selected regions is
    :func:`repro.sampling.reconstruct.run_sampled_prediction`.
    """
    recorder: Optional[F1Recorder] = None
    if f1_period is not None:
        if not isinstance(predictor, Mascot):
            raise TypeError("F1 recording requires a MASCOT-family predictor")
        recorder = F1Recorder(predictor, period_loads=f1_period)
    sink = None
    if telemetry:
        from ..obs.telemetry import TableTelemetry

        sink = predictor.attach_telemetry(TableTelemetry())

    cols = trace.columns
    # Predictors keeping the base no-op prime (Store Sets, the oracles)
    # get no prime inputs: nothing is built for them.
    inputs = (None if type(predictor).prime is MDPredictor.prime
              else prime_inputs(cols.op, cols.pc, cols.taken, cols.target))
    outcome_counts, kind_counts, _, _ = PredictorReplay(predictor).replay(
        cols, warmup, cols.n, inputs, recorder)
    stats = AccuracyStats()
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


def run_timing(
    trace: Trace,
    predictor: MDPredictor,
    config: CoreConfig = GOLDEN_COVE,
    measure_from: int = 0,
) -> PipelineStats:
    """Run the out-of-order timing model; returns its statistics.

    Every run goes through :class:`~repro.core.batched.BatchedPipeline`;
    the scalar :class:`~repro.core.pipeline.Pipeline` is the reference
    the golden equivalence tiers prove it bit-identical to, and tests
    construct it directly.  ``measure_from`` designates a warmup prefix
    excluded from measurement.  Sampled simulation of selected regions
    is :func:`repro.sampling.reconstruct.run_sampled_timing`.
    """
    return BatchedPipeline(predictor, config=config).run(
        trace, measure_from=measure_from)
