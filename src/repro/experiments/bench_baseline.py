"""Single-cell engine-throughput measurement and the committed baseline.

The batched engine (:class:`~repro.core.batched.BatchedPipeline`) exists
for speed; correctness is pinned by the golden equivalence tier.  This
module pins the *speed*: :func:`measure_cell` times one (benchmark,
predictor, core) timing cell under both engines, :func:`run_baseline`
sweeps the standard cell list, and ``repro bench-baseline`` writes the
result to the committed ``benchmarks/BENCH_throughput.json``.

The headline number is the **fig7 IPC cell** — perlbench1 × mascot ×
golden-cove — where the batched engine must hold ≥ 5× the scalar
engine's single-cell throughput (:data:`FIG7_MIN_SPEEDUP`).

Schema 2 adds the **sampled long-trace cell**: a multi-million-uop trace
measured end-to-end under sampled simulation (region selection +
functional warmup + medoid replay on the batched engine, see
:mod:`repro.sampling`) against the full run on the scalar reference
engine.  The two throughput axes multiply — sampling cuts the simulated
uops, batching cuts the per-uop cost — and the committed speedup must
hold :data:`SAMPLED_MIN_SPEEDUP` (≥ 20×).  The row records selection
time, sampled simulation time, full simulation time and the IPC
reconstruction error, so the perf trajectory and the fidelity cost are
tracked together.

Regression checking compares speedup *ratios*, not seconds: the ratio
divides out the host's absolute speed, so a baseline committed on one
machine remains meaningful on another (see docs/performance.md).  Both
sides are timed in process CPU time (``time.process_time``), so load
from other processes on a shared host does not swing the ratio.
Absolute times are recorded too, for humans reading the file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.batched import BatchedPipeline
from ..core.config import GOLDEN_COVE, LION_COVE, CoreConfig
from ..core.pipeline import Pipeline
from ..predictors.registry import make_predictor
from ..trace.generator import generate_trace

__all__ = [
    "BASELINE_PATH",
    "BASELINE_SCHEMA",
    "DEFAULT_CELLS",
    "DEFAULT_SAMPLED_CELLS",
    "FIG7_MIN_SPEEDUP",
    "SAMPLED_MIN_SPEEDUP",
    "SAMPLED_RATIO_TOLERANCE",
    "BenchCell",
    "SampledBenchCell",
    "measure_cell",
    "measure_sampled_cell",
    "run_baseline",
    "write_baseline",
    "load_baseline",
    "check_against_baseline",
]

#: Committed baseline location, relative to the repository root.
BASELINE_PATH = Path("benchmarks") / "BENCH_throughput.json"

#: Bump when the JSON layout changes (older files fail the check loudly).
BASELINE_SCHEMA = 2

#: Acceptance floor on the fig7 cell's batched/scalar speedup.
FIG7_MIN_SPEEDUP = 5.0

#: Acceptance floor on the long-trace cell's end-to-end sampled+batched
#: speedup over the full scalar reference run.
SAMPLED_MIN_SPEEDUP = 20.0

#: Ratio tolerance for the sampled cell, wider than the engine cells'
#: 20%: the sampled side finishes in seconds while the reference takes
#: minutes, so host noise moves the end-to-end ratio by tens of percent
#: between healthy runs (observed solo spread ~22-38x on one host).
#: The absolute :data:`SAMPLED_MIN_SPEEDUP` floor is the binding
#: contract; this tolerance only catches collapse-scale regressions.
SAMPLED_RATIO_TOLERANCE = 0.50

_CORES: Dict[str, CoreConfig] = {
    "golden-cove": GOLDEN_COVE,
    "lion-cove": LION_COVE,
}


@dataclass(frozen=True)
class BenchCell:
    """One timed cell: trace parameters plus the measurement window."""

    benchmark: str
    predictor: str
    core: str
    num_uops: int = 40_000
    measure_from: int = 10_000

    @property
    def label(self) -> str:
        return f"{self.benchmark} x {self.predictor} x {self.core}"


#: The standard baseline cells.  First entry is the fig7 IPC cell the
#: acceptance gate applies to; the others cover a second workload shape
#: (streaming FP) and a second predictor family (NoSQ's path-hashed
#: bypass tables).
DEFAULT_CELLS = (
    BenchCell("perlbench1", "mascot", "golden-cove"),
    BenchCell("lbm", "mascot", "golden-cove"),
    BenchCell("perlbench1", "nosq", "golden-cove"),
)


@dataclass(frozen=True)
class SampledBenchCell:
    """One sampled-vs-full cell: a long trace and the sampling policy."""

    benchmark: str
    predictor: str
    core: str
    num_uops: int
    interval_length: int = 10_000
    max_k: int = 6
    warmup_intervals: int = 4

    @property
    def label(self) -> str:
        return (f"{self.benchmark} x {self.predictor} x {self.core} "
                f"@ {self.num_uops:,} uops (sampled)")

    @property
    def policy(self):
        from ..sampling import SamplingPolicy

        return SamplingPolicy(interval_length=self.interval_length,
                              max_k=self.max_k,
                              warmup_intervals=self.warmup_intervals)


#: The standard sampled long-trace cell.  First entry is the one the
#: :data:`SAMPLED_MIN_SPEEDUP` acceptance gate applies to.
DEFAULT_SAMPLED_CELLS = (
    SampledBenchCell("xz", "mascot", "golden-cove", 8_000_000),
)


def _run_once(engine_cls, cell: BenchCell, trace) -> float:
    """One cold construction + run; returns CPU seconds."""
    pipeline = engine_cls(make_predictor(cell.predictor),
                          _CORES[cell.core])
    start = time.process_time()
    pipeline.run(trace, measure_from=cell.measure_from)
    return time.process_time() - start


def measure_cell(cell: BenchCell, repeats: int = 3) -> Dict[str, object]:
    """Best-of-``repeats`` CPU time for both engines on one cell.

    The trace is generated once and shared (generation is not part of
    either engine's cost): the batched engine reads its columns, and
    the micro-op objects the scalar engine reads are built before
    timing.  Each repeat constructs a fresh predictor and pipeline,
    exactly as a suite cell would.  Time is the process's CPU time, not
    wall time, so other load on a shared host (which only delays this
    process) is not charged to either engine; best-of-N suppresses what
    noise is left.  The engines alternate (scalar, batched, scalar, ...)
    so a burst of host load slows both sides of the ratio, not one.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    trace = generate_trace(cell.benchmark, cell.num_uops)
    trace.uops  # the scalar engine reads objects: build them untimed
    scalar_s = batched_s = float("inf")
    for _ in range(repeats):
        scalar_s = min(scalar_s, _run_once(Pipeline, cell, trace))
        batched_s = min(batched_s, _run_once(BatchedPipeline, cell, trace))
    kuops = (cell.num_uops - cell.measure_from) / 1000.0
    return {
        "benchmark": cell.benchmark,
        "predictor": cell.predictor,
        "core": cell.core,
        "num_uops": cell.num_uops,
        "measure_from": cell.measure_from,
        "scalar_s": round(scalar_s, 4),
        "batched_s": round(batched_s, 4),
        "speedup": round(scalar_s / batched_s, 3),
        "scalar_kuops_per_s": round(kuops / scalar_s, 1),
        "batched_kuops_per_s": round(kuops / batched_s, 1),
    }


def measure_sampled_cell(cell: SampledBenchCell) -> Dict[str, object]:
    """End-to-end sampled-vs-full measurement on one long trace.

    Single-shot by design: the full scalar reference run takes minutes,
    and the committed speedup carries ~10× headroom over the check
    tolerance, so best-of-N buys nothing worth its cost.  The trace is
    generated once, and the micro-op objects the scalar reference reads
    are built, before either side is timed: trace ingestion is not a
    per-side cost.  The sampled side is charged
    everything it runs end-to-end: region selection, functional-warmup
    index construction, and the warmed medoid replays.
    """
    from ..sampling.reconstruct import run_sampled_timing
    from ..sampling.select import select_regions

    config = _CORES[cell.core]
    policy = cell.policy
    trace = generate_trace(cell.benchmark, cell.num_uops)
    trace.uops  # the scalar reference reads objects: build them untimed

    start = time.process_time()
    selection = select_regions(trace, policy)
    select_s = time.process_time() - start

    start = time.process_time()
    sampled = run_sampled_timing(
        trace, lambda: make_predictor(cell.predictor), policy,
        config=config, selection=selection)
    sampled_s = time.process_time() - start

    start = time.process_time()
    full = Pipeline(make_predictor(cell.predictor), config=config).run(trace)
    full_s = time.process_time() - start

    lo, hi = sampled.ipc_ci
    return {
        "benchmark": cell.benchmark,
        "predictor": cell.predictor,
        "core": cell.core,
        "num_uops": cell.num_uops,
        "policy": policy.to_dict(),
        "k": selection.k,
        "simulated_uops": sampled.simulated_uops,
        "select_s": round(select_s, 4),
        "sampled_s": round(sampled_s, 4),
        "full_s": round(full_s, 4),
        "speedup": round(full_s / (select_s + sampled_s), 3),
        "sampled_ipc": round(sampled.stats.ipc, 6),
        "full_ipc": round(full.ipc, 6),
        "reconstruction_error":
            round(sampled.stats.ipc / full.ipc - 1.0, 6),
        "ipc_ci": [round(lo, 6), round(hi, 6)],
        "ci_covers_full": bool(lo <= full.ipc <= hi),
    }


def run_baseline(
    cells: Sequence[BenchCell] = DEFAULT_CELLS,
    repeats: int = 3,
    verbose: bool = False,
    sampled_cells: Sequence[SampledBenchCell] = DEFAULT_SAMPLED_CELLS,
) -> Dict[str, object]:
    """Measure every cell; returns the baseline document (JSON-shaped)."""
    measured: List[Dict[str, object]] = []
    for cell in cells:
        row = measure_cell(cell, repeats=repeats)
        measured.append(row)
        if verbose:
            print(f"  {cell.label}: scalar {row['scalar_s']}s, "
                  f"batched {row['batched_s']}s "
                  f"({row['speedup']}x)")
    sampled_rows: List[Dict[str, object]] = []
    for cell in sampled_cells:
        row = measure_sampled_cell(cell)
        sampled_rows.append(row)
        if verbose:
            print(f"  {cell.label}: select {row['select_s']}s + sampled "
                  f"{row['sampled_s']}s vs full {row['full_s']}s "
                  f"({row['speedup']}x, error "
                  f"{row['reconstruction_error']:+.2%})")
    return {
        "schema": BASELINE_SCHEMA,
        "repeats": repeats,
        "cells": measured,
        "sampled_cells": sampled_rows,
    }


def write_baseline(document: Dict[str, object],
                   path: Path = BASELINE_PATH) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Path = BASELINE_PATH) -> Dict[str, object]:
    document = json.loads(Path(path).read_text())
    if document.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline schema {document.get('schema')!r} != "
            f"{BASELINE_SCHEMA}; re-run `repro bench-baseline`"
        )
    return document


def check_against_baseline(
    current: Dict[str, object],
    committed: Dict[str, object],
    tolerance: float = 0.20,
    min_fig7_speedup: Optional[float] = FIG7_MIN_SPEEDUP,
    min_sampled_speedup: Optional[float] = SAMPLED_MIN_SPEEDUP,
    sampled_tolerance: float = SAMPLED_RATIO_TOLERANCE,
) -> List[str]:
    """Compare a fresh measurement to the committed baseline.

    Returns a list of violation messages (empty = pass).  A cell
    regresses when its batched/scalar speedup falls more than
    ``tolerance`` below the committed speedup — a machine-independent
    criterion.  The sampled cell's ratio uses the wider
    ``sampled_tolerance`` (see :data:`SAMPLED_RATIO_TOLERANCE`).
    ``min_fig7_speedup`` additionally enforces the absolute
    floor on the first (fig7) cell; ``min_sampled_speedup`` the floor on
    the first sampled long-trace cell.  Pass None to skip either floor.
    Sampled cells must also keep their confidence interval covering the
    full-run IPC — a coverage loss means the *reconstruction* drifted,
    which no timing tolerance excuses.
    """
    violations: List[str] = []
    committed_by_key = {
        (c["benchmark"], c["predictor"], c["core"]): c
        for c in committed["cells"]
    }
    for position, cell in enumerate(current["cells"]):
        key = (cell["benchmark"], cell["predictor"], cell["core"])
        label = " x ".join(key)
        reference = committed_by_key.get(key)
        if reference is None:
            violations.append(f"{label}: not in committed baseline")
            continue
        floor = reference["speedup"] * (1.0 - tolerance)
        if cell["speedup"] < floor:
            violations.append(
                f"{label}: speedup {cell['speedup']}x is more than "
                f"{tolerance:.0%} below the committed "
                f"{reference['speedup']}x (floor {floor:.2f}x)"
            )
        if position == 0 and min_fig7_speedup is not None \
                and cell["speedup"] < min_fig7_speedup:
            violations.append(
                f"{label}: speedup {cell['speedup']}x is below the "
                f"fig7 acceptance floor {min_fig7_speedup}x"
            )
    sampled_reference = {
        (c["benchmark"], c["predictor"], c["core"], c["num_uops"]): c
        for c in committed.get("sampled_cells", [])
    }
    for position, cell in enumerate(current.get("sampled_cells", [])):
        key = (cell["benchmark"], cell["predictor"], cell["core"],
               cell["num_uops"])
        label = (f"{cell['benchmark']} x {cell['predictor']} x "
                 f"{cell['core']} @ {cell['num_uops']:,} (sampled)")
        reference = sampled_reference.get(key)
        if reference is None:
            violations.append(f"{label}: not in committed baseline")
            continue
        floor = reference["speedup"] * (1.0 - sampled_tolerance)
        if cell["speedup"] < floor:
            violations.append(
                f"{label}: end-to-end speedup {cell['speedup']}x is more "
                f"than {sampled_tolerance:.0%} below the committed "
                f"{reference['speedup']}x (floor {floor:.2f}x)"
            )
        if position == 0 and min_sampled_speedup is not None \
                and cell["speedup"] < min_sampled_speedup:
            violations.append(
                f"{label}: end-to-end speedup {cell['speedup']}x is below "
                f"the sampled acceptance floor {min_sampled_speedup}x"
            )
        if not cell["ci_covers_full"]:
            violations.append(
                f"{label}: reconstruction CI {cell['ipc_ci']} no longer "
                f"covers the full-run IPC {cell['full_ipc']}"
            )
    return violations
