"""Simulate only representative regions and rebuild full-run metrics.

Each selected region is extracted together with the ``warmup_intervals``
intervals immediately **preceding** it as one contiguous slice
(:func:`rebase_interval`), replayed with a *fresh*
predictor (sampled regions are independent — predictor state must not
leak across them), and measured from the region's first micro-op.  The
adjacent replay trains the branch predictor on exactly the code that
precedes the region in the full run; what it *cannot* warm affordably is
the cache hierarchy (the L3 alone holds ~200k lines), which is why the
slice starts from a **functionally warmed** hierarchy instead of a cold
one: :class:`repro.memory.WarmupIndex` reconstructs each level's LRU
state from the entire access stream before the slice in vectorised time
(see :mod:`repro.memory.warmup` — disabling
:attr:`~repro.sampling.policy.SamplingPolicy.functional_warmup` biases
IPC downward on cache-resident workloads).  The earliest regions get a
shorter (possibly empty) warmup, faithfully: the full run reaches them
in exactly that state.  Full-run metrics then follow the SimPoint
identity: regions have equal length, so a cluster's weight is
simultaneously its share of intervals, of instructions, and of each
per-instruction event rate:

    rate_full  = sum_j w_j * rate_j
    cycles_full = round(N * sum_j w_j * cpi_j)

Every reconstructed counter is therefore a scaled estimate; the
``sampling`` metadata attached to the result says so explicitly and
carries the error bound.

**Error bound.**  The reconstruction error of cluster j is driven by how
much CPI varies *within* the cluster, which is unobservable from the
medoid alone.  We bound it with a Lipschitz argument: the measured
medoids give an empirical sensitivity of CPI to signature distance
(max pairwise ``|cpi_a - cpi_b| / ||centroid_a - centroid_b||``), and
cluster j's members sit ``dispersion_j`` away from their centroid on
average, so ``sigma_j = sensitivity * dispersion_j`` estimates the CPI
spread the medoid glosses over.  Weighted independent-cluster variance
``var = sum_j w_j^2 sigma_j^2`` yields a z-scaled confidence interval,
floored at :attr:`~repro.sampling.policy.SamplingPolicy.min_ci_relative`
of the estimate — a single-cluster selection has no pairwise evidence
and must not report a zero-width interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.accuracy import AccuracyStats
from ..core.batched import BatchedPipeline
from ..core.config import GOLDEN_COVE, CoreConfig
from ..core.stats import PipelineStats
from ..predictors.base import MDPredictor
from ..trace.columns import (
    BYPASS_CODES,
    Trace,
    TraceColumns,
    left_align_srcs,
)
from ..trace.uop import BypassClass
from .policy import SamplingPolicy
from .select import Region, RegionSelection, select_regions

__all__ = [
    "Interval",
    "SampledTiming",
    "rebase_interval",
    "run_sampled_timing",
    "run_sampled_prediction",
    "warmed_interval",
]

_BYPASS_NONE = BYPASS_CODES[BypassClass.NONE]


@dataclass(frozen=True)
class Interval:
    """One fixed-length slice of a trace."""

    index: int
    start: int  # first uop seq (inclusive)
    end: int    # last uop seq (exclusive)


@dataclass
class SampledTiming:
    """A sampled timing run: the reconstruction plus its raw parts."""

    #: Full-run estimate; ``stats.sampling`` carries the metadata below.
    stats: PipelineStats
    selection: RegionSelection
    #: Per-region measured statistics, aligned with ``selection.regions``.
    region_stats: List[PipelineStats]
    #: Two-sided confidence interval on the reconstructed IPC.
    ipc_ci: Tuple[float, float]
    #: Micro-ops actually simulated, warmup included.
    simulated_uops: int
    #: Per-region measured cycle stacks (``accounting=True`` only).
    region_stacks: Optional[List] = None
    #: Reconstructed full-run cycle stack (``accounting=True`` only);
    #: sums exactly to ``stats.cycles`` like a measured stack would.
    stack: Optional[object] = None


def _z_score(confidence: float) -> float:
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _pairwise_sensitivity(values: Sequence[float],
                          selection: RegionSelection) -> float:
    """Empirical Lipschitz constant of ``values`` over centroid distance."""
    sensitivity = 0.0
    centroids = selection.centroids
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            distance = sum(
                (x - y) ** 2 for x, y in zip(centroids[a], centroids[b])
            ) ** 0.5
            if distance <= 0.0:
                continue
            sensitivity = max(sensitivity,
                              abs(values[a] - values[b]) / distance)
    return sensitivity


def _ci_half_width(values: Sequence[float], selection: RegionSelection,
                   estimate: float) -> float:
    """z-scaled half-width around ``estimate`` (see module docstring)."""
    policy = selection.policy
    sensitivity = _pairwise_sensitivity(values, selection)
    variance = sum(
        (region.weight * sensitivity * region.dispersion) ** 2
        for region in selection.regions
    )
    half = _z_score(policy.confidence) * variance ** 0.5
    return max(half, policy.min_ci_relative * abs(estimate))


def rebase_interval(trace: Trace, interval: Interval,
                    offset: int = 0) -> Trace:
    """Extract an interval as a standalone trace.

    Sequence numbers are renumbered from ``offset`` (0 by default) and all
    dataflow / dependence references to micro-ops before the interval are
    dropped — exactly the state a simulation warmed only within the slice
    would observe (values from before the slice are architectural state,
    not in-flight producers).  A non-zero ``offset`` places the slice
    after ``offset`` other micro-ops, so rebased slices can be stitched
    into one replay trace (e.g. a shared warmup prefix followed by a
    sampled region); in-slice references stay in-slice — they never reach
    into whatever precedes the offset.

    The slice is cut from the trace's columns with array operations and
    returned as a :class:`~repro.trace.columns.Trace` carrying its own
    columns; no micro-op object is built.
    """
    if offset < 0:
        raise ValueError("offset must be non-negative")
    cols = trace.columns
    start, end = interval.start, interval.end
    delta = offset - start

    def remap(column: np.ndarray) -> np.ndarray:
        """In-slice references shifted by ``delta``; others -1."""
        refs = column[start:end]
        return np.where(refs >= start, refs + delta, -1)

    in_slice_dep = cols.dep_store_seq[start:end] >= start
    return Trace(TraceColumns.from_arrays(
        left_align_srcs(remap(cols.srcs)), offset,
        op=cols.op[start:end],
        pc=cols.pc[start:end],
        taken=cols.taken[start:end],
        target=cols.target[start:end],
        address=cols.address[start:end],
        size=cols.size[start:end],
        addr_src=remap(cols.addr_src),
        dep_store_seq=remap(cols.dep_store_seq),
        store_distance=np.where(in_slice_dep,
                                cols.store_distance[start:end], 0),
        bypass=np.where(in_slice_dep, cols.bypass[start:end], _BYPASS_NONE),
    ))


def warmed_interval(trace: Trace, region: Region,
                    policy: SamplingPolicy) -> Tuple[Trace, int]:
    """One contiguous slice: the region plus its preceding warmup.

    Returns ``(piece, warmup)`` where ``piece[warmup:]`` is the region
    itself and ``piece[:warmup]`` the (up to) ``warmup_intervals``
    intervals before it — clipped at the start of the trace, so the
    earliest regions replay exactly the cold-start the full run gives
    them.
    """
    warm_start = max(0, region.start
                     - policy.warmup_intervals * policy.interval_length)
    piece = rebase_interval(trace, Interval(
        index=region.index, start=warm_start, end=region.end))
    return piece, region.start - warm_start


def _warm_hierarchy_at(config: CoreConfig, index, start: int):
    """A hierarchy functionally warmed with the accesses before ``start``.

    Returns None (the engine builds its cold default) when functional
    warmup is disabled; see :mod:`repro.memory.warmup` for the
    reconstruction rule.
    """
    if index is None:
        return None
    from ..memory.hierarchy import MemoryHierarchy

    hierarchy = MemoryHierarchy(config.memory)
    index.warm(hierarchy, start)
    return hierarchy


def _scaled_accuracy(per_region: Sequence[AccuracyStats],
                     selection: RegionSelection,
                     instructions: int) -> AccuracyStats:
    """Full-run accuracy counts from per-region measurements."""
    scaled = AccuracyStats()
    scaled.instructions = instructions

    def scale(count_of: Callable[[AccuracyStats], int]) -> int:
        rate = sum(
            region.weight * count_of(stats) / max(stats.instructions, 1)
            for region, stats in zip(selection.regions, per_region)
        )
        return round(instructions * rate)

    scaled.loads = scale(lambda s: s.loads)
    for kind in scaled.outcome_counts:
        scaled.outcome_counts[kind] = scale(
            lambda s, _k=kind: s.outcome_counts[_k])
    for kind in scaled.prediction_counts:
        scaled.prediction_counts[kind] = scale(
            lambda s, _k=kind: s.prediction_counts[_k])
    return scaled


def _sampling_metadata(selection: RegionSelection, simulated: int,
                       metric_name: str, estimate: float,
                       half_width: float) -> Dict[str, object]:
    lo, hi = estimate - half_width, estimate + half_width
    return {
        "policy": selection.policy.to_dict(),
        "digest": selection.digest,
        "k": selection.k,
        "n_intervals": selection.n_intervals,
        "coverage": selection.coverage,
        "simulated_uops": simulated,
        "confidence": selection.policy.confidence,
        "metric": metric_name,
        "estimate": estimate,
        "ci": [lo, hi],
        "regions": [
            {"index": r.index, "weight": r.weight,
             "cluster_size": r.cluster_size}
            for r in selection.regions
        ],
    }


def run_sampled_timing(
    trace: Trace,
    predictor_factory: Callable[[], MDPredictor],
    policy: SamplingPolicy,
    config: CoreConfig = GOLDEN_COVE,
    selection: Optional[RegionSelection] = None,
    accounting: bool = False,
) -> SampledTiming:
    """Timing-simulate only the selected regions of ``trace``'s columns;
    reconstruct full stats.

    ``predictor_factory`` builds one fresh predictor per region — regions
    are measured independently, and predictor state carried from one
    region into another would couple them.  Pass ``selection`` to reuse a
    selection already computed for this (trace, policy).  ``accounting``
    additionally measures each region's cycle stack and reconstructs the
    full-run stack (``repro profile --sampling``).
    """
    if selection is None:
        selection = select_regions(trace, policy)
    index = None
    if policy.functional_warmup:
        from ..memory.warmup import WarmupIndex
        index = WarmupIndex.from_trace(trace, config.memory.line_size)
    region_stats: List[PipelineStats] = []
    region_stacks: Optional[List] = [] if accounting else None
    simulated = 0
    for region in selection.regions:
        piece, warmup = warmed_interval(trace, region, policy)
        simulated += len(piece)
        warm_start = region.start - warmup
        hierarchy = _warm_hierarchy_at(config, index, warm_start)
        pipe = BatchedPipeline(predictor_factory(), config=config,
                               hierarchy=hierarchy, accounting=accounting)
        region_stats.append(pipe.run(piece, measure_from=warmup))
        if accounting:
            region_stacks.append(pipe.cycle_stack)

    instructions = len(trace)
    stats = PipelineStats()
    stats.instructions = instructions
    for name in PipelineStats._COUNTER_FIELDS:
        if name == "instructions":
            continue
        rate = sum(
            region.weight * getattr(rs, name) / max(rs.instructions, 1)
            for region, rs in zip(selection.regions, region_stats)
        )
        setattr(stats, name, round(instructions * rate))
    stats.accuracy = _scaled_accuracy(
        [rs.accuracy for rs in region_stats], selection, instructions)

    # The CI lives on CPI (the weighted-sum domain) and maps to IPC
    # through the first-order delta |d(1/x)| = dx / x^2.
    cpis = [rs.cycles / max(rs.instructions, 1) for rs in region_stats]
    cpi = sum(r.weight * c for r, c in zip(selection.regions, cpis))
    half_cpi = _ci_half_width(cpis, selection, cpi)
    ipc = stats.ipc
    half_ipc = half_cpi / (cpi * cpi) if cpi > 0 else 0.0
    half_ipc = max(half_ipc, selection.policy.min_ci_relative * ipc)
    stats.sampling = _sampling_metadata(
        selection, simulated, "ipc", ipc, half_ipc)
    stack = None
    if accounting:
        stack = _reconstruct_stack(region_stacks, region_stats, selection,
                                   instructions, stats.cycles)
    return SampledTiming(
        stats=stats,
        selection=selection,
        region_stats=region_stats,
        ipc_ci=(ipc - half_ipc, ipc + half_ipc),
        simulated_uops=simulated,
        region_stacks=region_stacks,
        stack=stack,
    )


def _reconstruct_stack(region_stacks, region_stats, selection,
                       instructions: int, cycles: int):
    """Weight per-region cycle stacks into a full-run stack.

    Each category scales like any other counter (``N * sum_j w_j *
    rate_j``); independent rounding can then miss the reconstructed
    cycle count by a few units, so the residue lands in ``commit`` —
    the same category that absorbs measured runs' tails — keeping the
    accounting invariant (stack sums to cycles) exact.
    """
    from ..obs.cycles import CYCLE_CATEGORIES, CycleStack

    stack = CycleStack()
    for category in CYCLE_CATEGORIES:
        rate = sum(
            region.weight * rstack.cycles[category] / max(rs.instructions, 1)
            for region, rstack, rs in zip(selection.regions, region_stacks,
                                          region_stats)
        )
        stack.cycles[category] = round(instructions * rate)
    residue = cycles - sum(stack.cycles.values())
    stack.cycles["commit"] += residue
    if stack.cycles["commit"] < 0:
        largest = max(stack.cycles, key=stack.cycles.get)
        stack.cycles[largest] += stack.cycles["commit"]
        stack.cycles["commit"] = 0
    return stack


def run_sampled_prediction(
    trace: Trace,
    predictor_factory: Callable[[], MDPredictor],
    policy: SamplingPolicy,
    selection: Optional[RegionSelection] = None,
):
    """Prediction-only replay of the selected regions, reconstructed.

    Returns a :class:`~repro.experiments.runner.PredictionRunResult` whose
    accuracy counts are scaled to the full trace and whose ``sampling``
    metadata carries the selection digest and an MPKI confidence interval.
    Per-table prediction counts, F1 profiles and telemetry are not
    reconstructable from slices and are left empty.
    """
    from ..experiments.runner import PredictionRunResult, run_prediction_only

    if selection is None:
        selection = select_regions(trace, policy)
    per_region: List[AccuracyStats] = []
    simulated = 0
    for region in selection.regions:
        piece, warmup = warmed_interval(trace, region, policy)
        simulated += len(piece)
        per_region.append(
            run_prediction_only(piece, predictor_factory(),
                                warmup=warmup).accuracy)

    instructions = len(trace)
    accuracy = _scaled_accuracy(per_region, selection, instructions)
    mpkis = [stats.mpki() for stats in per_region]
    mpki = sum(r.weight * m for r, m in zip(selection.regions, mpkis))
    half = _ci_half_width(mpkis, selection, mpki)
    return PredictionRunResult(
        accuracy=accuracy,
        sampling=_sampling_metadata(
            selection, simulated, "mpki", mpki, half),
    )
