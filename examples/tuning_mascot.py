#!/usr/bin/env python3
"""Area tuning walkthrough — Sec. IV-F / VI-D as an application.

Runs MASCOT with per-entry F1 tracking over a few benchmarks, prints the
rank-ordered F1 profile per table (Fig. 14), applies the paper's
grow/shrink heuristics to suggest table sizes, and then measures the
accuracy cost of moving to MASCOT-OPT and the tag-reduced variants
(Fig. 15) in prediction-only mode.

Run:  python examples/tuning_mascot.py [num_uops]
"""

import sys

from repro import MASCOT_DEFAULT, MASCOT_OPT, Mascot, mascot_opt_reduced_tags
from repro.analysis import suggest_table_sizes
from repro.experiments import (
    default_cache,
    fig14_f1_ranking,
    render_table,
    run_prediction_only,
    trace_key,
)

BENCHMARKS = ["perlbench1", "gcc1", "lbm", "mcf"]


def main() -> None:
    num_uops = int(sys.argv[1]) if len(sys.argv) > 1 else 40_000

    print(f"Profiling entry usage over {BENCHMARKS} ...")
    result = fig14_f1_ranking(BENCHMARKS, num_uops, period_loads=5_000)
    print()
    print(result.render())

    suggested = suggest_table_sizes(
        result.profile, MASCOT_DEFAULT.table_entries
    )
    rows = [
        [f"table {t + 1}", MASCOT_DEFAULT.table_entries[t],
         suggested[t], MASCOT_OPT.table_entries[t]]
        for t in range(8)
    ]
    print(render_table(
        ["table", "default", "heuristic suggestion", "paper's MASCOT-OPT"],
        rows,
        title="Table resizing: mechanical heuristic vs the paper's choice",
    ))

    print("Accuracy cost of the compact configurations "
          "(prediction-only mode):")
    cache = default_cache()
    configs = [
        ("mascot (14 KiB)", MASCOT_DEFAULT),
        ("mascot-opt", MASCOT_OPT),
        ("mascot-opt tags-4", mascot_opt_reduced_tags(4)),
    ]
    rows = []
    for label, config in configs:
        total = 0
        for benchmark in BENCHMARKS:
            trace = cache.get(trace_key(benchmark, num_uops))
            run = run_prediction_only(trace, Mascot(config))
            total += run.accuracy.mispredictions
        rows.append([label, f"{Mascot(config).storage_kib:.2f}", total])
    print(render_table(
        ["configuration", "KiB", "total mispredictions"],
        rows,
        title="Fig. 15's trade-off at prediction level",
    ))
    print("Paper: MASCOT-OPT costs ~0.09% IPC; tags-4 costs ~0.13% IPC "
          "for 10.1 KiB.")


if __name__ == "__main__":
    main()
