"""Sampled-reconstruction error budget: sampled vs full on a tier-1 grid.

Sampling (:mod:`repro.sampling`) buys throughput by simulating only
representative regions; this module pins what that costs in fidelity.
:func:`run_error_budget` runs a benchmark grid both ways — full timing
simulation and sampled reconstruction, same trace, same predictor — and
reports the per-cell IPC reconstruction error alongside the confidence
interval the reconstruction *claimed*.  Two properties are
enforced (:func:`check_error_budget`, ``repro error-budget``, and the CI
``sampling-error-budget`` job):

* the geometric mean of the absolute IPC errors stays within
  :data:`GEOMEAN_ERROR_BUDGET` (2%), and
* every cell's full-run IPC falls inside its reported confidence
  interval — an estimate may be off, but it must not be *confidently*
  off.

Everything here is bit-deterministic (seeded traces, seeded selection),
so the gate cannot flap: a violation is a real regression in selection,
warmup, or reconstruction, not measurement noise.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from ..core.config import GOLDEN_COVE, CoreConfig
from ..sampling import SamplingPolicy, run_sampled_timing

__all__ = [
    "ERROR_BUDGET_BENCHMARKS",
    "GEOMEAN_ERROR_BUDGET",
    "run_error_budget",
    "check_error_budget",
    "render_error_budget",
]

#: The tier-1 subset the budget is validated on: two pointer-chasing
#: integer workloads, two streaming FP stencils, and two mixed phases.
ERROR_BUDGET_BENCHMARKS = ("mcf", "xz", "cam4", "cactuBSSN", "lbm", "wrf")

#: Acceptance ceiling on the geomean absolute IPC reconstruction error.
GEOMEAN_ERROR_BUDGET = 0.02


def _geomean(values: Sequence[float]) -> float:
    """Geometric mean, floored at 1e-6 per element (a perfect cell must
    not zero the product)."""
    if not values:
        return 0.0
    return math.exp(
        sum(math.log(max(abs(v), 1e-6)) for v in values) / len(values))


def run_error_budget(
    benchmarks: Sequence[str] = ERROR_BUDGET_BENCHMARKS,
    num_uops: int = 2_000_000,
    predictor: str = "mascot",
    policy: Optional[SamplingPolicy] = None,
    config: CoreConfig = GOLDEN_COVE,
    verbose: bool = False,
) -> Dict[str, object]:
    """Run the grid sampled and full; returns the budget report."""
    from ..trace.generator import generate_trace
    from .runner import run_timing
    from .suite import make_predictor

    if policy is None:
        policy = SamplingPolicy(interval_length=10_000)
    rows: List[Dict[str, object]] = []
    for benchmark in benchmarks:
        trace = generate_trace(benchmark, num_uops,
                               store_window=config.sb_size,
                               instr_window=config.rob_size)
        full = run_timing(trace, make_predictor(predictor), config=config)
        sampled = run_sampled_timing(
            trace, lambda: make_predictor(predictor), policy,
            config=config).stats
        lo, hi = sampled.sampling["ci"]
        row = {
            "benchmark": benchmark,
            "full_ipc": round(full.ipc, 6),
            "sampled_ipc": round(sampled.ipc, 6),
            "error": round(sampled.ipc / full.ipc - 1.0, 6),
            "ipc_ci": [round(lo, 6), round(hi, 6)],
            "ci_covers_full": bool(lo <= full.ipc <= hi),
            "k": sampled.sampling["k"],
            "coverage": round(sampled.sampling["coverage"], 6),
        }
        rows.append(row)
        if verbose:
            print(f"  {benchmark}: full {row['full_ipc']:.4f}, sampled "
                  f"{row['sampled_ipc']:.4f} ({row['error']:+.2%}, "
                  f"CI covers: {row['ci_covers_full']})", flush=True)
    return {
        "num_uops": num_uops,
        "predictor": predictor,
        "policy": policy.to_dict(),
        "rows": rows,
        "geomean_abs_error": round(
            _geomean([row["error"] for row in rows]), 6),
    }


def check_error_budget(
    report: Dict[str, object],
    budget: float = GEOMEAN_ERROR_BUDGET,
) -> List[str]:
    """Violation messages (empty = the reconstruction holds its budget)."""
    violations: List[str] = []
    geomean = report["geomean_abs_error"]
    if geomean > budget:
        violations.append(
            f"geomean |IPC error| {geomean:.2%} exceeds the "
            f"{budget:.0%} budget")
    for row in report["rows"]:
        if not row["ci_covers_full"]:
            violations.append(
                f"{row['benchmark']}: full-run IPC {row['full_ipc']} "
                f"outside the reported CI {row['ipc_ci']}")
    return violations


def render_error_budget(report: Dict[str, object]) -> str:
    """Human-readable budget table (docs/sampling.md carries one)."""
    lines = [
        f"sampled reconstruction error budget "
        f"({report['num_uops']:,} uops, {report['predictor']})",
        f"{'benchmark':<12} {'full IPC':>9} {'sampled':>9} {'error':>8} "
        f"{'95% CI':>19} {'covers':>7} {'k':>3}",
    ]
    for row in report["rows"]:
        lo, hi = row["ipc_ci"]
        lines.append(
            f"{row['benchmark']:<12} {row['full_ipc']:>9.4f} "
            f"{row['sampled_ipc']:>9.4f} {row['error']:>+8.2%} "
            f"[{lo:.4f}, {hi:.4f}] {str(row['ci_covers_full']):>7} "
            f"{row['k']:>3}")
    lines.append(f"geomean |error| {report['geomean_abs_error']:.2%} "
                 f"(budget {GEOMEAN_ERROR_BUDGET:.0%})")
    return "\n".join(lines)
