"""Baseline regression checking, including the sampled long-trace cell.

Measurement itself takes minutes of full-trace simulation, so these
tests drive :func:`check_against_baseline` with synthetic documents;
the real measurement runs in the CI perf job and via
``repro bench-baseline``.  One small cell checks what the measurement
charges: CPU time, never time spent waiting; another that the engines'
repeats alternate.
"""

import time

import pytest

from repro.experiments import bench_baseline
from repro.experiments.bench_baseline import (
    BASELINE_SCHEMA,
    SAMPLED_MIN_SPEEDUP,
    BenchCell,
    check_against_baseline,
    load_baseline,
    measure_cell,
    write_baseline,
)

#: How long each patched engine run sleeps.
SLEEP_S = 0.2


class TestMeasuresCpuTime:
    def test_sleep_inside_run_is_not_charged(self, monkeypatch):
        """A run that waits (as one descheduled on a loaded host does)
        costs no more than one that does not: both engines are timed in
        process CPU time."""
        def sleeping(engine_cls):
            class Sleeping(engine_cls):
                def run(self, *args, **kwargs):
                    time.sleep(SLEEP_S)
                    return super().run(*args, **kwargs)
            return Sleeping

        monkeypatch.setattr(bench_baseline, "Pipeline",
                            sleeping(bench_baseline.Pipeline))
        monkeypatch.setattr(bench_baseline, "BatchedPipeline",
                            sleeping(bench_baseline.BatchedPipeline))
        row = measure_cell(BenchCell("lbm", "mascot", "golden-cove",
                                     num_uops=1_500, measure_from=500),
                           repeats=1)
        assert row["scalar_s"] < SLEEP_S
        assert row["batched_s"] < SLEEP_S


class TestInterleavedRepeats:
    def test_engines_alternate_and_best_of_each_is_kept(self, monkeypatch):
        """A burst of host load must land on both sides of the ratio:
        repeats run scalar, batched, scalar, batched, ..."""
        order = []
        times = iter([3.0, 2.0, 1.0, 4.0, 5.0, 0.5])

        def fake_run_once(engine_cls, cell, trace):
            order.append(engine_cls)
            return next(times)

        monkeypatch.setattr(bench_baseline, "_run_once", fake_run_once)
        row = measure_cell(BenchCell("lbm", "mascot", "golden-cove",
                                     num_uops=1_500, measure_from=500),
                           repeats=3)
        assert order == [bench_baseline.Pipeline,
                         bench_baseline.BatchedPipeline] * 3
        assert row["scalar_s"] == 1.0
        assert row["batched_s"] == 0.5


def engine_cell(speedup=6.0):
    return {
        "benchmark": "perlbench1", "predictor": "mascot",
        "core": "golden-cove", "speedup": speedup,
    }


def sampled_cell(speedup=25.0, covers=True):
    return {
        "benchmark": "xz", "predictor": "mascot", "core": "golden-cove",
        "num_uops": 8_000_000, "speedup": speedup,
        "full_ipc": 0.41, "ipc_ci": [0.40, 0.42],
        "ci_covers_full": covers,
    }


def document(cells=None, sampled=None):
    return {
        "schema": BASELINE_SCHEMA,
        "repeats": 3,
        "cells": [engine_cell()] if cells is None else cells,
        "sampled_cells": [sampled_cell()] if sampled is None else sampled,
    }


class TestSampledCellGate:
    def test_clean_comparison_passes(self):
        assert check_against_baseline(document(), document()) == []

    def test_ratio_regression_flagged(self):
        # Committed 60x, measured 24x: below the 50% sampled ratio floor
        # (30x) while still above the 20x absolute floor, so the ratio
        # gate is what fires.
        committed = document(sampled=[sampled_cell(speedup=60.0)])
        current = document(sampled=[sampled_cell(speedup=24.0)])
        violations = check_against_baseline(current, committed)
        assert any("end-to-end speedup" in v and "50%" in v
                   for v in violations)
        assert not any("acceptance floor" in v for v in violations)

    def test_sampled_ratio_tolerance_is_wider_than_engine(self):
        # A 30% dip on the sampled cell is host noise, not a regression.
        committed = document(sampled=[sampled_cell(speedup=38.0)])
        current = document(sampled=[sampled_cell(speedup=38.0 * 0.7)])
        assert check_against_baseline(current, committed) == []

    def test_absolute_floor_enforced(self):
        weak = sampled_cell(speedup=SAMPLED_MIN_SPEEDUP - 1.0)
        violations = check_against_baseline(
            document(sampled=[weak]), document(sampled=[weak]))
        assert any("sampled acceptance floor" in v for v in violations)

    def test_floor_can_be_disabled(self):
        weak = sampled_cell(speedup=SAMPLED_MIN_SPEEDUP - 1.0)
        assert check_against_baseline(
            document(sampled=[weak]), document(sampled=[weak]),
            min_sampled_speedup=None) == []

    def test_lost_ci_coverage_flagged(self):
        current = document(sampled=[sampled_cell(covers=False)])
        violations = check_against_baseline(current, document())
        assert any("no longer covers" in v for v in violations)

    def test_unknown_sampled_cell_flagged(self):
        stranger = dict(sampled_cell(), benchmark="mcf")
        violations = check_against_baseline(
            document(sampled=[stranger]), document())
        assert any("not in committed baseline" in v for v in violations)

    def test_skipped_sampled_section_checks_engine_cells_only(self):
        current = document(sampled=[])
        assert check_against_baseline(current, document()) == []


class TestSchema:
    def test_old_schema_rejected(self, tmp_path):
        stale = dict(document(), schema=BASELINE_SCHEMA - 1)
        path = write_baseline(stale, tmp_path / "stale.json")
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_roundtrip(self, tmp_path):
        path = write_baseline(document(), tmp_path / "base.json")
        assert load_baseline(path) == document()
