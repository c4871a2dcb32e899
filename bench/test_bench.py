"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((workload.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(workload.BENCH_DIR / "run.py")]


def run_bench(*args: str) -> tuple:
    """Run the driver; (report JSON, human-readable lines)."""
    done = subprocess.run([*RUN, "--scale", "smoke", "--seconds", "0.1",
                           *args], capture_output=True, text=True,
                          timeout=170, cwd=workload.ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(name):
    report, lines = run_bench("--workload", name)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    for metric_name, unit in expected.items():
        assert report["metrics"][metric_name]["value"] > 0
        assert any(line.split()[:1] == [metric_name]
                   and line.endswith(f" {unit}") for line in lines)


def span(span_id, parent, start, end, pid=1, leaves=None):
    return {"name": span_id, "id": span_id, "parent": parent, "pid": pid,
            "start": start, "end": end, "leaves": leaves or {}}


def test_self_time_subtracts_children_union_and_leaves():
    spans = [
        span("root", None, 0.0, 10.0, leaves={"memory.access": [3, 0.5]}),
        # Overlapping children cover [1, 5]: 4 s, not 5 s.
        span("a", "root", 1.0, 3.0),
        span("b", "root", 2.0, 5.0),
        span("a1", "a", 1.5, 2.5),
        # A child that outlives its parent only covers the overlap.
        span("late", "root", 9.0, 12.0),
        # A worker's span runs beside, not inside, the coordinator's.
        span("worker", "root", 0.0, 10.0, pid=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selfs["a"] == pytest.approx(1.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert selfs["late"] == pytest.approx(3.0)
    assert selfs["worker"] == pytest.approx(10.0)


def test_covered_seconds_merges_and_clips():
    assert tracing.covered_seconds(0, 10, []) == 0.0
    assert tracing.covered_seconds(
        0, 10, [(-5, 1), (2, 4), (3, 6), (8, 20)]) == pytest.approx(7.0)


@pytest.fixture(scope="module")
def smoke_fig7(tmp_path_factory):
    workload.import_repro()
    grid = workload.GRIDS["smoke"]["fig7_batched"]
    cells = workload.build_cells(grid, workload.TRACE_SEEDS[0])
    results, _ = workload.run_pass(cells, grid.jobs,
                                   tmp_path_factory.mktemp("cache"))
    return cells, results, workload.load_golden(1, "smoke", "fig7_batched")


def test_corrupted_golden_digest_counts_as_failure(smoke_fig7):
    cells, results, golden = smoke_fig7
    assert workload.check_outputs(cells, results, golden) == []
    label = next(iter(golden))
    corrupted = dict(golden, **{label: "0" * 64})
    problems = workload.check_outputs(cells, results, corrupted)
    assert problems == [f"{label}: output digest differs from golden"]


def test_missing_golden_fails_loudly():
    with pytest.raises(workload.GoldenError):
        workload.load_golden(len(workload.TRACE_SEEDS) + 1, "smoke",
                             "fig7_batched")
    with pytest.raises(workload.GoldenError):
        workload.load_golden(1, "smoke", "no-such-workload")


def test_absent_boundary_warns_and_is_skipped(tmp_path):
    workload.import_repro()
    tracer = tracing.Tracer(tmp_path)
    with pytest.warns(RuntimeWarning, match="core.renamed"):
        tracer.install([tracing.Boundary("core.renamed", "repro.core.batched",
                                         "BatchedPipeline._phase_z")])
    tracer.uninstall()
    assert tracer.absent == ["core.renamed"]


# Simulated statistics and counts that do not depend on which pool worker
# ran which cell (trace generation counts do, under a pool).
DETERMINISTIC = ("sampling.ipc_err_pct", "sampling.ci_halfwidth_pct",
                 "sampling.ci_cover_frac", "sampling.simulated_uops",
                 "memory.l1d_miss_rate", "memory.l2_misses",
                 "memory.l3_misses", "memory.prefetch_fills",
                 "memory.access_calls", "core.runs")


@pytest.mark.parametrize("name", ["sampled_long", "fig9_pool2"])
def test_simulated_metrics_repeat_exactly(name):
    first, _ = run_bench("--workload", name, "--trace", "1")
    second, _ = run_bench("--workload", name, "--trace", "1")
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric_name in DETERMINISTIC:
        assert first["metrics"][metric_name] == second["metrics"][metric_name]
    assert first["metrics"]["memory.l2_misses"]["value"] > 0
    if name == "sampled_long":
        assert first["metrics"]["sampling.ipc_err_pct"]["value"] > 0
    assert first["metrics"]["tracing.self_sum_frac"]["value"] \
        == pytest.approx(1.0, abs=0.05)
