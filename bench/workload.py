"""One benchmark workload in a fresh interpreter: set up, run, check.

``bench/run.py`` starts this script once per set-up measurement and once
for the measured run.  The script imports the simulator from the
checkout's ``src``, builds the workload's ``CellSpec`` grid for the trace
seed, and prints ``ready``; that line ends set-up.  It then runs whole
passes of the grid through ``repro.experiments.parallel.execute_cells``
until ``--seconds`` have passed (at least one pass), checks every cell
against the committed golden outputs, and prints one JSON report line.

Every pass starts from the state a fresh ``repro`` process has: the
trace memo and the columnar-trace memo are cleared and the pass gets a
new, empty result-cache directory.  With ``--trace`` the script first
runs one untraced pass (the overhead reference), then installs the span
tracer and measures traced passes.

Record golden outputs for an input set with::

    python3 bench/run.py --record-golden --seed 3 [--scale smoke]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench-out"
GOLDEN_DIR = BENCH_DIR / "golden"

#: Trace seed of each input set; ``--seed n`` runs input set
#: ``1 + (n - 1) % 16``, whose golden outputs are committed, so every seed
#: is checked.  Each of these seeds makes ``sampled_long`` select three
#: regions of xz (one of them the cold first region) and two of mcf, so
#: the seed varies trace content but not the amount of sampled work.
TRACE_SEEDS = (1, 5, 12, 26, 27, 46, 52, 54, 55, 56, 70, 83, 86, 96, 105,
               117)

WORKLOADS = ("fig7_batched", "fig8_accuracy", "fig9_pool2", "sampled_long")
SCALES = ("default", "smoke")

FIG7_BENCHMARKS = ("perlbench1", "gcc4", "mcf", "deepsjeng", "exchange2",
                   "xz", "lbm", "bwaves")
HELD_OUT_BENCHMARKS = ("perlbench2", "gcc1", "gcc5", "omnetpp", "xalancbmk",
                       "leela", "cam4", "wrf", "nab", "roms")


@dataclass(frozen=True)
class Grid:
    """A workload's cells: benchmarks x predictors at one trace length."""

    mode: str
    benchmarks: Tuple[str, ...]
    predictors: Tuple[str, ...]
    num_uops: int
    #: Accuracy mode: micro-ops that train but are not measured.
    warmup: int = 0
    #: Sampled cells: the policy's interval length; None = full runs.
    interval_length: Optional[int] = None
    #: Run through the local process pool with min(2, nproc) workers.
    pool: bool = False

    @property
    def jobs(self) -> int:
        return min(2, len(os.sched_getaffinity(0))) if self.pool else 1


GRIDS: Dict[str, Dict[str, Grid]] = {
    "default": {
        "fig7_batched": Grid("timing", FIG7_BENCHMARKS,
                             ("perfect-mdp", "nosq", "phast", "mascot"),
                             40_000),
        "fig8_accuracy": Grid("accuracy", FIG7_BENCHMARKS,
                              ("store-sets", "nosq", "phast", "mascot"),
                              40_000, warmup=10_000),
        "fig9_pool2": Grid("timing", HELD_OUT_BENCHMARKS,
                           ("perfect-mdp", "store-sets", "phast",
                            "mascot-mdp"), 40_000, pool=True),
        "sampled_long": Grid("timing", ("xz", "mcf"), ("mascot", "nosq"),
                             300_000, interval_length=10_000),
    },
    "smoke": {
        "fig7_batched": Grid("timing", ("exchange2", "lbm"),
                             ("nosq", "mascot"), 4_000),
        "fig8_accuracy": Grid("accuracy", ("exchange2", "lbm"),
                              ("store-sets", "mascot"), 4_000, warmup=1_000),
        "fig9_pool2": Grid("timing", ("gcc1", "cam4"),
                           ("store-sets", "mascot-mdp"), 4_000, pool=True),
        "sampled_long": Grid("timing", ("xz",), ("mascot", "nosq"), 20_000,
                             interval_length=2_000),
    },
}


class GoldenError(RuntimeError):
    """Golden outputs are missing for the requested seed or workload."""


def input_set(seed: int) -> int:
    return 1 + (seed - 1) % len(TRACE_SEEDS)


def import_repro() -> None:
    """Import the simulator from this checkout's ``src``, and only there."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench: no simulator sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    import repro.core.batched  # noqa: F401 -- part of set-up, not the pass
    import repro.experiments.parallel  # noqa: F401
    import repro.experiments.suite  # noqa: F401

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def build_cells(grid: Grid, seed: int) -> list:
    from repro.core.config import GOLDEN_COVE
    from repro.experiments.parallel import CellSpec
    from repro.sampling import SamplingPolicy

    timing = grid.mode == "timing"
    policy = (SamplingPolicy(interval_length=grid.interval_length)
              if grid.interval_length else None)
    return [CellSpec(mode=grid.mode, benchmark=benchmark,
                     num_uops=grid.num_uops, predictor=predictor,
                     config=GOLDEN_COVE if timing else None,
                     trace_seed=seed, warmup=grid.warmup,
                     engine="batched" if timing else "scalar",
                     sampling=policy)
            for benchmark in grid.benchmarks
            for predictor in grid.predictors]


# -------------------------------------------------------------- golden files

def golden_path(index: int) -> Path:
    return GOLDEN_DIR / f"seed-{index}.json"


def load_golden(index: int, scale: str, workload: str) -> Dict[str, object]:
    """Golden outputs of one workload for input set ``index``."""
    path = golden_path(index)
    try:
        document = json.loads(path.read_text())
        entry = document["scales"][scale][workload]
    except FileNotFoundError as error:
        raise GoldenError(f"no golden outputs for input set {index}: "
                          f"{path} is missing") from error
    except KeyError as error:
        raise GoldenError(f"{path} has no {scale}/{workload} entry") from error
    if document["trace_seed"] != TRACE_SEEDS[index - 1]:
        raise GoldenError(f"{path} was recorded for trace seed "
                          f"{document['trace_seed']}, not "
                          f"{TRACE_SEEDS[index - 1]}")
    return entry


def result_digest(result) -> str:
    from repro.common.hashing import stable_digest
    from repro.experiments.result_cache import encode_result

    return stable_digest(encode_result(result))


def sampled_problem(spec, stats) -> Optional[str]:
    """Why a sampled cell's reconstruction is malformed, or None."""
    meta = getattr(stats, "sampling", None)
    if not meta:
        return "no reconstruction metadata"
    regions = meta["regions"]
    lo, hi = meta["ci"]
    checks = (
        (stats.instructions == spec.num_uops, "instructions != trace length"),
        (meta["metric"] == "ipc", "metric is not ipc"),
        (meta["k"] == len(regions) >= 1, "k does not match the regions"),
        (abs(sum(r["weight"] for r in regions) - 1.0) <= 1e-9,
         "region weights do not sum to 1"),
        (meta["n_intervals"]
         == spec.num_uops // spec.sampling.interval_length,
         "wrong interval count"),
        (meta["simulated_uops"] > 0, "nothing simulated"),
        (lo <= meta["estimate"] <= hi, "estimate outside its interval"),
        (meta["estimate"] == stats.ipc, "estimate is not the IPC"),
    )
    for ok, message in checks:
        if not ok:
            return message
    return None


def check_outputs(cells: Sequence, results: Sequence,
                  golden: Dict[str, object]) -> List[str]:
    """One message per cell that failed or whose output is wrong."""
    from repro.experiments.resilience import CellFailure, cell_label

    problems = []
    for spec, result in zip(cells, results):
        label = cell_label(spec)
        if isinstance(result, CellFailure):
            problems.append(result.describe())
        elif label not in golden:
            problems.append(f"{label}: no golden output")
        elif spec.sampling is not None:
            problem = sampled_problem(spec, result)
            if problem is not None:
                problems.append(f"{label}: {problem}")
        elif result_digest(result) != golden[label]:
            problems.append(f"{label}: output digest differs from golden")
    return problems


def sampled_fidelity(cells: Sequence, results: Sequence,
                     golden: Dict[str, object]) -> Dict[str, float]:
    """Reconstruction error, interval width and coverage vs full runs."""
    from repro.experiments.resilience import cell_label

    errors, widths, covered = [], [], []
    for spec, stats in zip(cells, results):
        if spec.sampling is None or sampled_problem(spec, stats) is not None:
            continue
        full_ipc = golden[cell_label(spec)]["full_ipc"]
        lo, hi = stats.sampling["ci"]
        errors.append(abs(stats.ipc / full_ipc - 1.0))
        widths.append((hi - lo) / 2.0 / stats.ipc)
        covered.append(lo <= full_ipc <= hi)
    if not errors:
        return {"sampling.ipc_err_pct": 0.0,
                "sampling.ci_halfwidth_pct": 0.0,
                "sampling.ci_cover_frac": 0.0}
    geomean = (math.exp(statistics.fmean(math.log(e) for e in errors))
               if all(errors) else 0.0)
    return {"sampling.ipc_err_pct": 100.0 * geomean,
            "sampling.ci_halfwidth_pct": 100.0 * statistics.fmean(widths),
            "sampling.ci_cover_frac": statistics.fmean(covered)}


def record_golden(index: int, scale: str) -> Path:
    """Compute and write every workload's golden outputs for an input set."""
    from repro.experiments import parallel
    from repro.experiments.resilience import cell_label
    from repro.experiments.runner import default_cache

    seed = TRACE_SEEDS[index - 1]
    entries: Dict[str, Dict[str, object]] = {}
    for workload, grid in GRIDS[scale].items():
        cells = build_cells(grid, seed)
        entry: Dict[str, object] = {}
        if grid.interval_length:
            full = parallel.execute_cells(
                [dataclasses.replace(c, sampling=None) for c in cells])
            for spec, stats in zip(cells, full):
                entry[cell_label(spec)] = {"full_ipc": stats.ipc}
        else:
            for spec, result in zip(cells, parallel.execute_cells(cells)):
                entry[cell_label(spec)] = result_digest(result)
        entries[workload] = entry
        default_cache().clear()
    path = golden_path(index)
    document = (json.loads(path.read_text()) if path.exists() else {})
    if document.get("trace_seed") != seed:
        document = {"trace_seed": seed, "scales": {}}
    document["scales"][scale] = entries
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------------ passes

def run_pass(cells: Sequence, jobs: int, cache_dir: Path):
    """One pass over the grid from a fresh process's state; (results, s)."""
    from repro.experiments import parallel
    from repro.experiments.resilience import ResiliencePolicy
    from repro.experiments.runner import default_cache
    from repro.trace.columns import TraceColumns

    default_cache().clear()
    TraceColumns.clear_memo()
    start = time.perf_counter()
    results = parallel.execute_cells(
        cells, jobs=jobs, cache=str(cache_dir),
        policy=ResiliencePolicy(fail_fast=False))
    wall = time.perf_counter() - start
    shutil.rmtree(cache_dir, ignore_errors=True)
    return results, wall


def boundaries(grid: Grid) -> list:
    """The layer boundaries the traced pass wraps (see bench/README.md)."""
    from repro.experiments.suite import make_predictor
    from tracing import Boundary

    wrapped = [
        Boundary("experiments.execute_cells", "repro.experiments.parallel",
                 "execute_cells"),
        Boundary("experiments.compute_cell", "repro.experiments.parallel",
                 "compute_cell"),
        Boundary("experiments.cell_key", "repro.experiments.parallel",
                 "cell_key"),
        Boundary("experiments.cache_store", "repro.experiments.result_cache",
                 "ResultCache.store"),
        Boundary("runner.replay", "repro.experiments.parallel",
                 "run_prediction_only"),
        Boundary("trace.gen", "repro.experiments.runner", "generate_trace"),
        Boundary("trace.columns", "repro.trace.columns",
                 "TraceColumns.__init__"),
        Boundary("core.run", "repro.core.batched", "BatchedPipeline.run"),
        Boundary("core.phase_a", "repro.core.batched",
                 "BatchedPipeline._phase_a"),
        Boundary("core.phase_b", "repro.core.batched",
                 "BatchedPipeline._phase_b"),
        Boundary("memory.access", "repro.memory.hierarchy",
                 "MemoryHierarchy.timed_load", leaf=True),
        Boundary("memory.access", "repro.memory.hierarchy",
                 "MemoryHierarchy.store_probe", leaf=True),
        Boundary("memory.warmup_index", "repro.memory.warmup",
                 "WarmupIndex.from_trace"),
        Boundary("memory.warm", "repro.memory.warmup", "WarmupIndex.warm"),
        Boundary("sampling.select", "repro.sampling.reconstruct",
                 "select_regions"),
        Boundary("sampling.replay", "repro.sampling.reconstruct",
                 "run_sampled_timing"),
        Boundary("sampling.kmeans", "repro.sampling.select", "kmeans_labels"),
        Boundary("sampling.signatures", "repro.sampling.select",
                 "region_signatures"),
    ]
    # predict/train on the class that defines them, once per class.
    seen = set()
    for name in grid.predictors:
        cls = type(make_predictor(name))
        for method in ("predict", "train"):
            owner = next(c for c in cls.__mro__ if method in c.__dict__)
            if (owner, method) not in seen:
                seen.add((owner, method))
                wrapped.append(Boundary(
                    f"predictors.{method}", owner.__module__,
                    f"{owner.__qualname__}.{method}", leaf=True))
    return wrapped


def layer_metrics(spans: List[dict], passes: int, jobs: int,
                  cells: Sequence, results: Sequence, coordinator_pid: int,
                  traced_s: float) -> Dict[str, float]:
    """Per-layer metrics per traced pass, from the recorded spans.

    ``results`` are one pass's cell results and ``traced_s`` the wall time
    of all traced passes together.
    """
    from tracing import CELL_SPAN, self_times

    selfs = self_times(spans)
    duration: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    leaf_calls: Dict[str, int] = {}
    leaf_s: Dict[str, float] = {}
    memory = {"l1d_accesses": 0, "l1d_misses": 0, "l2_misses": 0,
              "l3_misses": 0, "prefetch_fills": 0}
    coordinator_s = 0.0
    for span in spans:
        name = span["name"]
        duration[name] = duration.get(name, 0.0) + span["end"] - span["start"]
        own[name] = own.get(name, 0.0) + selfs[span["id"]]
        calls[name] = calls.get(name, 0) + 1
        for leaf, (count, seconds) in span["leaves"].items():
            leaf_calls[leaf] = leaf_calls.get(leaf, 0) + count
            leaf_s[leaf] = leaf_s.get(leaf, 0.0) + seconds
        if name == CELL_SPAN:
            for key, value in span["memory"].items():
                memory[key] += value
        if span["pid"] == coordinator_pid:
            coordinator_s += selfs[span["id"]] + sum(
                seconds for _, seconds in span["leaves"].values())

    def per_pass(table, name):
        return table.get(name, 0) / passes

    distinct_traces = len({(c.benchmark, c.num_uops, c.program_seed,
                            c.trace_seed, c.store_window, c.instr_window)
                           for c in cells})
    distinct_selections = len({(c.benchmark, c.num_uops, c.trace_seed,
                                c.sampling) for c in cells
                               if c.sampling is not None})
    execute_s = duration.get("experiments.execute_cells", 0.0)
    cell_s = duration.get(CELL_SPAN, 0.0)
    run_s = duration.get("core.run", 0.0)
    select_calls = calls.get("sampling.select", 0)
    simulated_uops = sum(r.sampling["simulated_uops"] for r in results
                         if getattr(r, "sampling", None))
    run_kuops = (simulated_uops + sum(
        c.num_uops for c in cells
        if c.mode == "timing" and c.sampling is None)) * passes / 1000.0
    return {
        "trace.gen_s": per_pass(duration, "trace.gen"),
        "trace.gen_calls": per_pass(calls, "trace.gen"),
        "trace.gen_per_trace":
            calls.get("trace.gen", 0) / (distinct_traces * passes),
        "trace.columns_s": per_pass(duration, "trace.columns"),
        "trace.columns_calls": per_pass(calls, "trace.columns"),
        "core.phase_a_s": per_pass(duration, "core.phase_a"),
        "core.phase_b_self_s": per_pass(own, "core.phase_b"),
        "core.runs": per_pass(calls, "core.run"),
        "core.sim_kuops_per_s": run_kuops / run_s if run_s else 0.0,
        "predictors.predict_s": per_pass(leaf_s, "predictors.predict"),
        "predictors.train_s": per_pass(leaf_s, "predictors.train"),
        "predictors.calls": (leaf_calls.get("predictors.predict", 0)
                             + leaf_calls.get("predictors.train", 0)) / passes,
        "runner.replay_self_s": per_pass(own, "runner.replay"),
        "memory.access_s": per_pass(leaf_s, "memory.access"),
        "memory.access_calls": per_pass(leaf_calls, "memory.access"),
        "memory.l1d_miss_rate": (memory["l1d_misses"] / memory["l1d_accesses"]
                                 if memory["l1d_accesses"] else 0.0),
        "memory.l2_misses": memory["l2_misses"] / passes,
        "memory.l3_misses": memory["l3_misses"] / passes,
        "memory.prefetch_fills": memory["prefetch_fills"] / passes,
        "memory.warmup_index_s": per_pass(duration, "memory.warmup_index"),
        "memory.warm_s": per_pass(duration, "memory.warm"),
        "sampling.select_s": per_pass(duration, "sampling.select"),
        "sampling.select_calls": select_calls / passes,
        "sampling.select_reuse": (distinct_selections * passes / select_calls
                                  if select_calls else 0.0),
        "sampling.kmeans_s": per_pass(duration, "sampling.kmeans"),
        "sampling.kmeans_calls": per_pass(calls, "sampling.kmeans"),
        "sampling.signatures_s": per_pass(duration, "sampling.signatures"),
        "sampling.replay_self_s": per_pass(own, "sampling.replay"),
        "sampling.simulated_uops": simulated_uops,
        "experiments.overhead_s": (execute_s - cell_s / jobs) / passes,
        "experiments.cell_self_s": per_pass(own, CELL_SPAN),
        "experiments.cell_key_s": per_pass(duration, "experiments.cell_key"),
        "experiments.cache_store_s":
            per_pass(duration, "experiments.cache_store"),
        "experiments.cache_stores": per_pass(calls, "experiments.cache_store"),
        "experiments.pool_busy_frac":
            cell_s / (jobs * execute_s) if execute_s else 0.0,
        "tracing.self_sum_frac": coordinator_s / traced_s,
    }


def measure(args, grid: Grid, cells: list, golden: Dict[str, object],
            tmp: Path) -> Dict[str, object]:
    """Run passes for ``args.seconds``; the report the driver reads."""
    covered_kuops = sum(c.num_uops for c in cells) / 1000.0
    problems: List[str] = []
    attempted = 0
    walls: List[float] = []
    last_results: list = []

    def one_pass(index: int) -> float:
        nonlocal attempted, last_results
        results, wall = run_pass(cells, grid.jobs, tmp / f"cache-{index}")
        attempted += len(cells)
        problems.extend(check_outputs(cells, results, golden))
        last_results = results
        return wall

    metrics: Dict[str, float] = {}
    if not args.trace:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(one_pass(len(walls)))
        metrics["kuops_per_s"] = statistics.median(
            covered_kuops / wall for wall in walls)
    else:
        from tracing import Tracer

        untraced_wall = one_pass(0)
        tracer = Tracer(tmp / "spans")
        tracer.install(boundaries(grid))
        spans: List[dict] = []
        start = time.perf_counter()
        try:
            while not walls or time.perf_counter() - start < args.seconds:
                tracer.run_id = f"{args.workload}:{args.seed}:{len(walls) + 1}"
                walls.append(one_pass(len(walls) + 1))
                spans.extend(tracer.collect())
                write_trace(args.workload, spans, tracer.absent)
        finally:
            tracer.uninstall()
        traced_wall = statistics.fmean(walls)
        metrics.update(layer_metrics(spans, len(walls), grid.jobs, cells,
                                     last_results, os.getpid(), sum(walls)))
        metrics["tracing.wall_s"] = traced_wall
        metrics["tracing.overhead_frac"] = traced_wall / untraced_wall - 1.0
    if args.trace or grid.interval_length:
        metrics.update(sampled_fidelity(cells, last_results, golden))
    return {"attempted": attempted, "failed": len(problems),
            "problems": problems[:20], "pass_walls": walls,
            "metrics": metrics}


def write_trace(workload: str, spans: List[dict], absent: List[str]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload}.json").write_text(
        json.dumps({"absent": absent, "spans": spans}))


# -------------------------------------------------------------------- main

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", choices=SCALES, default="default")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    import_repro()
    index = input_set(args.seed)
    if args.record_golden:
        print(f"wrote {record_golden(index, args.scale)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    grid = GRIDS[args.scale][args.workload]
    cells = build_cells(grid, TRACE_SEEDS[index - 1])
    try:
        golden = load_golden(index, args.scale, args.workload)
    except GoldenError as error:
        raise SystemExit(f"bench: {error}") from error
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        print("ready", flush=True)
        if args.setup_only:
            return 0
        report = measure(args, grid, cells, golden, tmp)
        print(json.dumps(report), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
