"""``repro profile``: cycle-stack + table-usage report for one cell.

Runs one (benchmark, predictor) cell through the batched timing pipeline
with cycle accounting enabled and a telemetry sink attached, validates
the accounting invariant (per-category cycles sum exactly to the
measured cycle count), and renders both breakdowns.  This is the
human-facing entry point of :mod:`repro.obs`; the CI profile step calls
it on a small trace so any drift between the pipeline's stall
attribution and its cycle counter fails the build.

This module is imported lazily by the CLI so ``import repro.obs`` stays
free of experiment-layer dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.config import GOLDEN_COVE, CoreConfig
from ..core.batched import BatchedPipeline
from ..core.stats import PipelineStats
from .cycles import CYCLE_CATEGORIES, CycleStack
from .telemetry import TableTelemetry

__all__ = ["ProfileReport", "profile_cell"]


@dataclass
class ProfileReport:
    """Everything one profiled cell produced."""

    benchmark: str
    predictor: str
    num_uops: int
    measure_from: int
    stats: PipelineStats
    stack: CycleStack
    telemetry: TableTelemetry
    #: History lengths of the predictor's tables (empty when the
    #: predictor has no TAGE-like table geometry to label).
    history_lengths: Tuple[int, ...] = ()
    #: Sampled-reconstruction metadata (``stats.sampling``) when the
    #: cell was profiled under a sampling policy; None on full runs.
    sampling: Optional[dict] = None
    #: Per-region measured stats/stacks behind a sampled profile.
    region_stats: List[PipelineStats] = field(default_factory=list)
    region_stacks: List[CycleStack] = field(default_factory=list)

    def validate(self) -> None:
        """Raise CycleAccountingError unless the stack sums to cycles.

        A sampled profile additionally validates every *measured*
        region stack against that region's cycle count — the
        reconstructed full-run stack is only as sound as its parts.
        """
        self.stack.validate(self.stats.cycles)
        for stack, stats in zip(self.region_stacks, self.region_stats):
            stack.validate(stats.cycles)

    def render(self) -> str:
        from ..experiments.reporting import render_table

        shares = self.stack.shares()
        cycle_rows = [
            [category, self.stack.cycles[category], f"{shares[category]:.2f}"]
            for category in CYCLE_CATEGORIES
            if self.stack.cycles[category]
        ]
        cycle_rows.append(["total", self.stack.total, "100.00"])
        out = [
            f"profile: {self.benchmark} / {self.predictor} "
            f"({self.num_uops} uops, measure_from={self.measure_from})",
            f"IPC {self.stats.ipc:.3f}  cycles {self.stats.cycles}  "
            f"instructions {self.stats.instructions}",
            "",
            render_table(["category", "cycles", "% of cycles"], cycle_rows,
                         title="cycle stack"),
        ]
        if self.sampling is not None:
            meta = self.sampling
            lo, hi = meta["ci"]
            out.append("")
            out.append(
                f"sampled reconstruction: {meta['metric']} "
                f"{meta['estimate']:.4f} in [{lo:.4f}, {hi:.4f}] "
                f"({meta['confidence']:.0%} CI)")
            out.append(
                f"  k={meta['k']} of {meta['n_intervals']} intervals, "
                f"coverage {meta['coverage']:.1%}, simulated "
                f"{meta['simulated_uops']} of {self.num_uops} uops")
            region_rows = [
                [meta["regions"][j]["index"],
                 f"{meta['regions'][j]['weight']:.3f}",
                 stats.instructions, stats.cycles, f"{stats.ipc:.3f}"]
                for j, stats in enumerate(self.region_stats)
            ]
            out.append(render_table(
                ["region", "weight", "instructions", "cycles", "ipc"],
                region_rows, title="measured regions"))
        if self.telemetry.num_slots:
            hits = self.telemetry.provider_hits_by_history(
                self.history_lengths)
            table_rows = [
                [label, self.telemetry.provider_hits[slot],
                 self.telemetry.allocations[slot],
                 self.telemetry.nondep_allocations[slot],
                 self.telemetry.evictions[slot]]
                for slot, (label, _) in enumerate(hits)
            ]
            out.append(render_table(
                ["table", "provider hits", "allocs", "non-dep", "evictions"],
                table_rows, title="table usage"))
        transitions = dict(self.telemetry.confidence_events)
        transitions.update(self.telemetry.events)
        if transitions:
            out.append(render_table(
                ["event", "count"],
                sorted(transitions.items()),
                title="predictor events"))
        return "\n".join(out)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "predictor": self.predictor,
            "num_uops": self.num_uops,
            "measure_from": self.measure_from,
            "ipc": self.stats.ipc,
            "cycles": self.stats.cycles,
            "instructions": self.stats.instructions,
            "cycle_stack": self.stack.to_dict(),
            "telemetry": self.telemetry.to_dict(),
            "history_lengths": list(self.history_lengths),
            "sampling": self.sampling,
        }


def _history_lengths(predictor) -> Tuple[int, ...]:
    lengths = getattr(predictor, "history_lengths", None)
    if lengths is None:
        lengths = getattr(getattr(predictor, "config", None),
                          "history_lengths", None)
    return tuple(lengths) if lengths is not None else ()


def profile_cell(
    benchmark: str,
    predictor_name: str,
    num_uops: int = 40_000,
    config: CoreConfig = GOLDEN_COVE,
    measure_from: Optional[int] = None,
    sampling=None,
) -> ProfileReport:
    """Profile one (benchmark, predictor) timing cell.

    ``measure_from`` defaults to a quarter of the trace (the suite's
    warmed-measurement discipline).  With a
    :class:`~repro.sampling.SamplingPolicy` only the selected regions
    are simulated (accounting on), the full-run stack is reconstructed,
    and ``measure_from`` is ignored — each region carries its own warmup
    prefix.  The shared telemetry sink then accumulates over every
    region *including* warmup replay, so table-usage counts are
    slice-level observations, not full-run estimates.  The returned
    report has *not* been validated — callers decide whether an
    invariant violation is fatal (the CLI exits non-zero; tests assert).
    """
    from ..experiments.runner import default_cache
    from ..experiments.suite import make_predictor

    trace = default_cache().get(
        benchmark, num_uops,
        store_window=config.sb_size, instr_window=config.rob_size,
    )
    if sampling is not None:
        from ..sampling.reconstruct import run_sampled_timing

        sink = TableTelemetry()
        predictors = []

        def factory():
            predictor = make_predictor(predictor_name)
            predictor.attach_telemetry(sink)
            predictors.append(predictor)
            return predictor

        sampled = run_sampled_timing(trace, factory, sampling,
                                     config=config, accounting=True)
        return ProfileReport(
            benchmark=benchmark,
            predictor=predictor_name,
            num_uops=num_uops,
            measure_from=0,
            stats=sampled.stats,
            stack=sampled.stack,
            telemetry=sink,
            history_lengths=(
                _history_lengths(predictors[0]) if predictors else ()),
            sampling=sampled.stats.sampling,
            region_stats=sampled.region_stats,
            region_stacks=sampled.region_stacks,
        )
    if measure_from is None:
        measure_from = num_uops // 4
    predictor = make_predictor(predictor_name)
    sink = predictor.attach_telemetry(TableTelemetry())
    pipeline = BatchedPipeline(predictor, config=config, accounting=True)
    stats = pipeline.run(trace, measure_from=measure_from)
    return ProfileReport(
        benchmark=benchmark,
        predictor=predictor_name,
        num_uops=num_uops,
        measure_from=measure_from,
        stats=stats,
        stack=pipeline.cycle_stack,
        telemetry=sink,
        history_lengths=_history_lengths(predictor),
    )
