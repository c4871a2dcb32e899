"""Error-budget gate logic plus a small-scale plumbing run."""

import pytest

from repro.experiments.error_budget import (
    GEOMEAN_ERROR_BUDGET,
    check_error_budget,
    render_error_budget,
    run_error_budget,
)
from repro.sampling import SamplingPolicy


def row(benchmark="mcf", error=0.01, covers=True):
    return {
        "benchmark": benchmark, "full_ipc": 0.4,
        "sampled_ipc": round(0.4 * (1 + error), 6), "error": error,
        "ipc_ci": [0.39, 0.41], "ci_covers_full": covers,
        "k": 3, "coverage": 0.05,
    }


def report(rows):
    import math

    geomean = math.exp(sum(math.log(max(abs(r["error"]), 1e-6))
                           for r in rows) / len(rows))
    return {
        "num_uops": 2_000_000, "predictor": "mascot",
        "policy": SamplingPolicy(interval_length=10_000).to_dict(),
        "rows": rows, "geomean_abs_error": round(geomean, 6),
    }


class TestCheckErrorBudget:
    def test_clean_report_passes(self):
        assert check_error_budget(report([row(), row("xz", -0.015)])) == []

    def test_geomean_over_budget_flagged(self):
        bad = report([row(error=0.05), row("xz", error=0.04)])
        violations = check_error_budget(bad)
        assert any("geomean" in v for v in violations)

    def test_one_tight_cell_does_not_mask_a_bad_one(self):
        # geomean(0.1%, 4.5%) < 2% — the budget passes, but the bad
        # cell's CI miss must still be flagged.
        mixed = report([row(error=0.001),
                        row("xz", error=0.045, covers=False)])
        assert mixed["geomean_abs_error"] < GEOMEAN_ERROR_BUDGET
        violations = check_error_budget(mixed)
        assert any("outside the reported CI" in v for v in violations)

    def test_coverage_loss_flagged(self):
        violations = check_error_budget(report([row(covers=False)]))
        assert any("outside the reported CI" in v for v in violations)


class TestRunErrorBudget:
    def test_small_grid_produces_coherent_report(self):
        result = run_error_budget(
            benchmarks=("mcf",), num_uops=60_000,
            policy=SamplingPolicy(interval_length=5_000, max_k=3,
                                  warmup_intervals=1))
        (cell,) = result["rows"]
        assert cell["benchmark"] == "mcf"
        assert cell["error"] == pytest.approx(
            cell["sampled_ipc"] / cell["full_ipc"] - 1.0, abs=1e-5)
        assert result["geomean_abs_error"] \
            == pytest.approx(abs(cell["error"]), abs=1e-5)
        assert "geomean" in render_error_budget(result)


class TestErrorBudgetCore:
    def test_full_run_replays_the_cores_suite_cell(self):
        # The trace is cut for the budgeted core's store and instruction
        # windows, so the full-run IPC is the one Fig. 12 reports.
        from repro.core.config import LION_COVE
        from repro.experiments.suite import run_ipc_suite

        result = run_error_budget(
            benchmarks=("exchange2",), num_uops=20_000,
            predictor="tage-no-nd", config=LION_COVE,
            policy=SamplingPolicy(interval_length=5_000, max_k=2,
                                  warmup_intervals=1))
        (cell,) = result["rows"]
        suite = run_ipc_suite(["tage-no-nd"], ["exchange2"], 20_000,
                              config=LION_COVE)
        assert cell["full_ipc"] == round(
            suite.stats["tage-no-nd"]["exchange2"].ipc, 6)
