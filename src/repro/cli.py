"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points so the paper's experiments
can be reproduced without writing Python:

* ``simulate``  — run one (benchmark, predictor) pair through the timing
  model and print the statistics.
* ``compare``   — sweep predictors over benchmarks and print normalised IPC
  (the Figs. 7/9 harness).
* ``accuracy``  — prediction-only sweep with the Fig. 8 error taxonomy.
* ``figure``    — regenerate a specific paper table/figure by name.
* ``sizes``     — print Table II.
* ``gen-trace`` — generate and serialise a trace for external use.
* ``validate``  — check a serialised trace against every consumer
  invariant (see :mod:`repro.trace.validate`).
* ``profile``   — cycle-accounting + predictor-telemetry report for one
  cell; exits non-zero if the stall breakdown does not sum exactly to
  the measured cycle count (see :mod:`repro.obs`).
* ``lint``      — static simulator-correctness checks (oracle isolation,
  determinism/cache safety, engine equivalence, worker safety; see
  :mod:`repro.lint`).
* ``doctor``    — environment health checks (cache writability, orphaned
  temp files, worker spawn, simulator smoke test; see
  :mod:`repro.doctor`).
* ``bench-baseline`` — measure scalar vs batched engine throughput and
  write (or, with ``--check``, compare against) the committed
  ``benchmarks/BENCH_throughput.json`` (see docs/performance.md).

Every timing command runs the batched engine, which the golden
equivalence test tier pins bit-identical to the scalar reference
pipeline at several times its throughput.

``simulate``, ``compare``, ``accuracy``, ``profile`` and the figure
commands ``fig7``/``fig8``/``fig9`` accept ``--sampling`` (with
``--interval-length``, ``--max-k``, ``--warmup-intervals``): only
SimPoint-style representative regions are simulated and the printed
statistics are full-run reconstructions carrying confidence intervals
(see docs/sampling.md).

Fault tolerance: the sweep commands accept ``--cell-timeout`` and
``--keep-going`` (see docs/resilience.md).  Each cell runs once; a cell
that fails is charged to itself and never retried within the run.  Every
settled cell is stored in the result cache as it settles, so rerunning a
killed or partly failed command on the same ``--cache-dir`` computes only
the cells that had not settled, failed ones included.  ``--jobs N`` runs cells on N local worker
processes.  Several hosts split one grid by giving each its own
``--benchmarks`` subset and ``--cache-dir``; copying the cache
directories together and rerunning the full command then renders the
grid from the cache with no simulation (docs/resilience.md, "Splitting
a grid across hosts").
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .core.config import GOLDEN_COVE, LION_COVE
from .experiments import figures
from .lint import cli as lint_cli
from .experiments.bench_baseline import BASELINE_PATH
from .experiments.reporting import render_table
from .experiments.parallel import CellSpec, Execution
from .experiments.resilience import CellFailure
from .experiments.suite import (
    PREDICTORS,
    run_accuracy_suite,
    run_ipc_suite,
)
from .trace import generate_trace, suite_names
from .trace.stream import TraceFormatError, read_trace, write_trace
from .trace.validate import validate_trace

__all__ = ["main"]

_CORES = {"golden-cove": GOLDEN_COVE, "lion-cove": LION_COVE}

def _add_sampling_args(parser: argparse.ArgumentParser) -> None:
    """Sampled-simulation flags shared by simulate/compare/figure/profile."""
    parser.add_argument(
        "--sampling", action="store_true",
        help="simulate only representative regions (SimPoint-style "
             "selection) and reconstruct full-run statistics with a "
             "confidence interval (see docs/sampling.md)",
    )
    parser.add_argument(
        "--interval-length", type=_positive_int, default=10_000,
        metavar="UOPS",
        help="region length for --sampling (default: %(default)s)",
    )
    parser.add_argument(
        "--max-k", type=_positive_int, default=6, metavar="K",
        help="upper bound on representative regions for --sampling; the "
             "actual count is BIC-selected (default: %(default)s)",
    )
    parser.add_argument(
        "--warmup-intervals", type=_non_negative_int, default=4,
        metavar="N",
        help="warmup-prefix length for --sampling, in intervals "
             "(default: %(default)s)",
    )


def _sampling_arg(args):
    """Build the SamplingPolicy from the --sampling flag family."""
    if not getattr(args, "sampling", False):
        return None
    from .sampling import SamplingPolicy
    return SamplingPolicy(
        interval_length=args.interval_length,
        max_k=args.max_k,
        warmup_intervals=args.warmup_intervals,
    )


def _render_sampling_summary(meta: dict) -> str:
    lo, hi = meta["ci"]
    return (
        f"sampled: {meta['metric']} {meta['estimate']:.4f} in "
        f"[{lo:.4f}, {hi:.4f}] ({meta['confidence']:.0%} CI), "
        f"k={meta['k']} of {meta['n_intervals']} intervals, "
        f"coverage {meta['coverage']:.1%}, "
        f"{meta['simulated_uops']} uops simulated"
    )


#: Figures regenerated from a suite grid; each takes the CLI's execution.
_SUITE_FIGURES = {
    "fig7": figures.fig7_ipc_full,
    "fig8": figures.fig8_mispredictions,
    "fig9": figures.fig9_ipc_mdp_only,
    "fig10": figures.fig10_prediction_mix,
    "fig11": figures.fig11_ablation,
    "fig12": figures.fig12_future_architectures,
    "fig13": figures.fig13_table_usage,
    "fig14": figures.fig14_f1_ranking,
    "fig15": figures.fig15_mascot_opt,
}

_SAMPLED_FIGURES = frozenset({"fig7", "fig8", "fig9"})

_FIGURES = sorted(["fig2", "table1", "table2", *_SUITE_FIGURES])


def _figure(args):
    """Regenerate the figure or table ``args.name`` names."""
    if args.name == "fig2":
        return figures.fig2_smb_opportunities(args.benchmarks, args.uops)
    if args.name == "table1":
        return figures.table1_configuration()
    if args.name == "table2":
        return figures.table2_sizes()
    sampling = ({"sampling": _sampling_arg(args)}
                if args.name in _SAMPLED_FIGURES else {})
    return _SUITE_FIGURES[args.name](args.benchmarks, args.uops,
                                     execution=Execution.from_args(args),
                                     **sampling)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _cache_directory(text: str) -> str:
    if os.path.exists(text) and not os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} exists and is not a "
                                         "directory")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks", nargs="*", default=None, metavar="NAME",
        help="benchmarks to run (default: the full suite)",
    )
    parser.add_argument(
        "--uops", type=int, default=40_000,
        help="dynamic micro-ops per benchmark (default: 40000)",
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for suite cells (default: 1 = serial; "
             "results are identical for any value)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", type=_cache_directory, default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-mascot)",
    )
    parser.add_argument(
        "--cell-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="per-cell wall-clock timeout (default: none)",
    )
    fail_mode = parser.add_mutually_exclusive_group()
    fail_mode.add_argument(
        "--fail-fast", dest="keep_going", action="store_false",
        help="abort the sweep on the first failed cell (default)",
    )
    fail_mode.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        help="mark failed cells as failed and complete the rest of "
             "the grid; a rerun on the same cache computes only them",
    )
    parser.set_defaults(keep_going=False)
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="append per-cell execution records (wall time, cache "
             "hit/miss, failures) to this JSONL file",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MASCOT (HPCA 2025) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="one benchmark, one predictor")
    simulate.add_argument("benchmark", choices=suite_names())
    simulate.add_argument("predictor", choices=sorted(PREDICTORS))
    simulate.add_argument("--uops", type=int, default=60_000)
    simulate.add_argument("--core", choices=sorted(_CORES),
                          default="golden-cove")
    _add_sampling_args(simulate)

    compare = sub.add_parser("compare", help="normalised-IPC sweep")
    compare.add_argument(
        "predictors", nargs="+", choices=sorted(PREDICTORS),
    )
    _add_common(compare)
    compare.add_argument("--core", choices=sorted(_CORES),
                         default="golden-cove")
    _add_sampling_args(compare)

    accuracy = sub.add_parser("accuracy", help="prediction-only error sweep")
    accuracy.add_argument(
        "predictors", nargs="+", choices=sorted(PREDICTORS),
    )
    _add_common(accuracy)
    _add_sampling_args(accuracy)

    figure = sub.add_parser("figure", help="regenerate a paper table/figure")
    figure.add_argument("name", choices=_FIGURES)
    _add_common(figure)
    _add_sampling_args(figure)

    sub.add_parser("sizes", help="print Table II")

    gen = sub.add_parser("gen-trace", help="generate and serialise a trace")
    gen.add_argument("benchmark", choices=suite_names())
    gen.add_argument("output", help="destination file")
    gen.add_argument("--uops", type=int, default=100_000)
    gen.add_argument("--program-seed", type=int, default=0)
    gen.add_argument("--trace-seed", type=int, default=1)

    check = sub.add_parser("validate", help="validate a serialised trace")
    check.add_argument("trace_file")
    check.add_argument("--core", choices=sorted(_CORES),
                       default="golden-cove",
                       help="core whose store buffer and ROB bound the "
                            "dependences (default: %(default)s)")

    profile = sub.add_parser(
        "profile",
        help="cycle-accounting + predictor-telemetry report for one cell "
             "(validates that the stall breakdown sums to the cycle count)",
    )
    profile.add_argument("benchmark", nargs="?", choices=suite_names())
    profile.add_argument("predictor", nargs="?",
                         choices=sorted(PREDICTORS))
    profile.add_argument(
        "--metrics-file", default=None, metavar="FILE",
        help="also summarise a sweep's --metrics JSONL (cells, "
             "failures, cache); with no benchmark/predictor, print only "
             "that",
    )
    profile.add_argument("--uops", type=_positive_int, default=40_000)
    profile.add_argument("--core", choices=sorted(_CORES),
                         default="golden-cove")
    profile.add_argument(
        "--measure-from", type=_non_negative_int, default=None,
        metavar="UOP",
        help="first measured uop (default: a quarter of the trace)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of tables",
    )
    _add_sampling_args(profile)

    lint = sub.add_parser(
        "lint",
        help="static simulator-correctness checks (oracle isolation, "
             "determinism, engine equivalence, worker safety)",
    )
    lint_cli.add_arguments(lint)

    bench = sub.add_parser(
        "bench-baseline",
        help="measure scalar vs batched engine throughput; write or check "
             "the committed benchmarks/BENCH_throughput.json",
    )
    bench.add_argument(
        "--output", default=str(BASELINE_PATH), metavar="FILE",
        help="baseline JSON path (default: %(default)s)",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="re-measure and compare against the committed baseline "
             "instead of overwriting it (exit 1 on regression)",
    )
    bench.add_argument(
        "--repeats", type=_positive_int, default=3,
        help="best-of-N repeats per engine per cell (default: %(default)s)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed relative speedup regression under --check "
             "(default: %(default)s)",
    )
    bench.add_argument(
        "--skip-sampled", action="store_true",
        help="skip the sampled long-trace cell (minutes of full-trace "
             "simulation); engine cells only",
    )

    budget = sub.add_parser(
        "error-budget",
        help="run a benchmark grid sampled and full; fail when the "
             "geomean IPC reconstruction error exceeds the budget or a "
             "CI misses the full-run value (see docs/sampling.md)",
    )
    from .experiments.error_budget import ERROR_BUDGET_BENCHMARKS
    budget.add_argument(
        "--benchmarks", nargs="+", choices=suite_names(),
        default=list(ERROR_BUDGET_BENCHMARKS), metavar="BENCH",
        help="benchmarks to grid (default: the validated tier-1 subset)",
    )
    budget.add_argument(
        "--uops", type=_positive_int, default=2_000_000,
        help="trace length per cell (default: %(default)s)",
    )
    budget.add_argument("--predictor", default="mascot",
                        choices=sorted(PREDICTORS))
    budget.add_argument(
        "--interval-length", type=_positive_int, default=None,
        help="override the sampling policy's region length",
    )
    budget.add_argument(
        "--max-k", type=_positive_int, default=6,
        help="cluster bound when --interval-length is given "
             "(default: %(default)s)",
    )
    budget.add_argument(
        "--warmup-intervals", type=_non_negative_int, default=4,
        help="warmup intervals when --interval-length is given "
             "(default: %(default)s)",
    )
    budget.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    doctor = sub.add_parser(
        "doctor",
        help="check the environment (cache writability, worker spawn, "
             "simulator smoke test)",
    )
    doctor.add_argument("--cache-dir", type=_cache_directory, default=None,
                        metavar="DIR")

    return parser


def _cmd_simulate(args) -> int:
    # One timing cell; its trace is cut for --core, as every cell's is.
    stats = Execution().run([CellSpec(
        mode="timing", benchmark=args.benchmark, num_uops=args.uops,
        predictor=args.predictor, config=_CORES[args.core],
        sampling=_sampling_arg(args))])[0]
    rows = sorted(stats.as_dict().items())
    print(render_table(["metric", "value"], rows,
                       title=f"{args.benchmark} / {args.predictor} "
                             f"on {args.core}"))
    if getattr(stats, "sampling", None) is not None:
        print(_render_sampling_summary(stats.sampling))
    return 0


def _cmd_compare(args) -> int:
    suite = run_ipc_suite(args.predictors, args.benchmarks, args.uops,
                          config=_CORES[args.core],
                          sampling=_sampling_arg(args),
                          execution=Execution.from_args(args))
    return _print_figure(figures.IpcFigureResult(
        title="IPC normalised to perfect MDP", suite=suite,
        predictors=args.predictors))


def _cmd_accuracy(args) -> int:
    results = run_accuracy_suite(args.predictors, args.benchmarks, args.uops,
                                 sampling=_sampling_arg(args),
                                 execution=Execution.from_args(args))
    rows = []
    failures = []
    for name, per_bench in results.items():
        runs = []
        for run in per_bench.values():
            if isinstance(run, CellFailure):
                failures.append(run)
            else:
                runs.append(run)
        total_fd = sum(r.accuracy.false_dependencies for r in runs)
        total_se = sum(r.accuracy.speculative_errors for r in runs)
        total = sum(r.accuracy.mispredictions for r in runs)
        rows.append([name, total, total_fd, total_se])
    print(render_table(
        ["predictor", "mispredictions", "false dependencies",
         "speculative errors"],
        rows, title="Prediction-accuracy sweep (Fig. 8 taxonomy)",
    ))
    if failures:
        for failure in failures:
            print(f"FAILED {failure.describe()}", file=sys.stderr)
        return 1
    return 0


def _cmd_figure(args) -> int:
    if args.sampling and args.name not in _SAMPLED_FIGURES:
        print(f"repro figure: --sampling is only supported for "
              f"{', '.join(sorted(_SAMPLED_FIGURES))} (got {args.name})",
              file=sys.stderr)
        return 2
    return _print_figure(_figure(args))


def _print_figure(result) -> int:
    """Print a figure result; list its failed cells on stderr (exit 1)."""
    print(result.render())
    failures = list(getattr(result, "failures", None) or [])
    if failures:
        for failure in failures:
            print(f"FAILED {failure.describe()}", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    from .obs import CycleAccountingError
    from .obs.profile import profile_cell

    if args.benchmark is None or args.predictor is None:
        if args.metrics_file is None:
            print("repro profile: benchmark and predictor are required "
                  "unless --metrics-file is given", file=sys.stderr)
            return 2
        return _print_metrics_summary(args.metrics_file)

    policy = _sampling_arg(args)
    if policy is not None and args.measure_from is not None:
        print("repro profile: --measure-from and --sampling are mutually "
              "exclusive (sampled warmup is per-region)", file=sys.stderr)
        return 2
    report = profile_cell(args.benchmark, args.predictor, args.uops,
                          config=_CORES[args.core],
                          measure_from=args.measure_from,
                          sampling=policy)
    try:
        report.validate()
    except CycleAccountingError as error:
        print(f"cycle-accounting invariant violated: {error}",
              file=sys.stderr)
        return 1
    if args.json:
        import json
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    if args.metrics_file is not None:
        return _print_metrics_summary(args.metrics_file)
    return 0


def _print_metrics_summary(path: str) -> int:
    from .obs import render_metrics_summary, summarize_metrics

    summary = summarize_metrics(path)
    print(f"[metrics] {render_metrics_summary(summary)}")
    return 0


def _cmd_bench_baseline(args) -> int:
    from .experiments.bench_baseline import (
        DEFAULT_SAMPLED_CELLS,
        check_against_baseline,
        load_baseline,
        run_baseline,
        write_baseline,
    )

    sampled_cells = () if args.skip_sampled else DEFAULT_SAMPLED_CELLS
    print(f"measuring engine throughput (best of {args.repeats}):")
    current = run_baseline(repeats=args.repeats, verbose=True,
                           sampled_cells=sampled_cells)
    if not args.check:
        if args.skip_sampled:
            print("repro bench-baseline: refusing to write a baseline "
                  "without the sampled cell (--skip-sampled is for "
                  "--check runs)", file=sys.stderr)
            return 2
        path = write_baseline(current, Path(args.output))
        print(f"wrote {path}")
        return 0
    try:
        committed = load_baseline(Path(args.output))
    except (OSError, ValueError) as error:
        print(f"cannot load baseline {args.output}: {error}",
              file=sys.stderr)
        return 1
    violations = check_against_baseline(current, committed,
                                        tolerance=args.tolerance)
    for violation in violations:
        print(f"REGRESSION {violation}", file=sys.stderr)
    if violations:
        return 1
    print(f"all cells within {args.tolerance:.0%} of the committed speedups")
    return 0


def _cmd_error_budget(args) -> int:
    from .experiments.error_budget import (
        check_error_budget,
        render_error_budget,
        run_error_budget,
    )

    policy = None
    if args.interval_length is not None:
        from .sampling import SamplingPolicy
        policy = SamplingPolicy(interval_length=args.interval_length,
                                max_k=args.max_k,
                                warmup_intervals=args.warmup_intervals)
    if not args.json:
        print(f"measuring sampled reconstruction error "
              f"({args.uops:,} uops per cell):", flush=True)
    report = run_error_budget(
        benchmarks=tuple(args.benchmarks), num_uops=args.uops,
        predictor=args.predictor, policy=policy, verbose=not args.json)
    if args.json:
        import json
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_error_budget(report))
    violations = check_error_budget(report)
    for violation in violations:
        print(f"BUDGET {violation}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_gen_trace(args) -> int:
    trace = generate_trace(args.benchmark, args.uops,
                           program_seed=args.program_seed,
                           trace_seed=args.trace_seed)
    write_trace(trace, args.output, benchmark=args.benchmark)
    print(f"wrote {len(trace):,} micro-ops to {args.output}")
    return 0


def _cmd_validate(args) -> int:
    try:
        trace = read_trace(args.trace_file)
    except TraceFormatError as error:
        print(f"{args.trace_file}: ERROR {error}")
        return 1
    core = _CORES[args.core]
    report = validate_trace(trace, core.sb_size, core.rob_size, strict=False)
    print(f"{args.trace_file}: {report.uops:,} micro-ops, "
          f"{report.loads:,} loads ({report.dependent_loads:,} dependent), "
          f"{report.stores:,} stores")
    if report.ok:
        print("all invariants hold")
        return 0
    for error in report.errors:
        print(f"  ERROR {error}")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``; returns the exit status."""
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "accuracy":
        return _cmd_accuracy(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "sizes":
        print(figures.table2_sizes().render())
        return 0
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "bench-baseline":
        return _cmd_bench_baseline(args)
    if args.command == "error-budget":
        return _cmd_error_budget(args)
    if args.command == "gen-trace":
        return _cmd_gen_trace(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "lint":
        return lint_cli.run(args)
    if args.command == "doctor":
        from .doctor import run_doctor
        return run_doctor(cache_dir=args.cache_dir)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
