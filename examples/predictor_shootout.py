#!/usr/bin/env python3
"""Predictor shootout: every predictor on a contrasting benchmark trio.

Reproduces the qualitative story of Figs. 7-9 on three benchmarks chosen
for their different characters:

* ``perlbench2`` — dependence-rich, highly sensitive to early load values
  (the paper's best case for SMB);
* ``lbm``        — many bypassable dependences but short consumer chains;
* ``exchange2``  — almost register-resident, so MDP/SMB barely matter.

Run:  python examples/predictor_shootout.py [num_uops]
"""

import sys

from repro import GOLDEN_COVE, generate_trace
from repro.experiments import make_predictor, render_table, run_timing

PREDICTORS = [
    "perfect-mdp",
    "perfect-mdp-smb",
    "mascot",
    "mascot-mdp",
    "tage-no-nd",
    "phast",
    "nosq",
    "store-sets",
]

BENCHMARKS = ["perlbench2", "lbm", "exchange2"]


def main() -> None:
    num_uops = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000

    rows = []
    for benchmark in BENCHMARKS:
        print(f"Simulating {benchmark} ({num_uops:,} uops, "
              f"{len(PREDICTORS)} predictors) ...")
        trace = generate_trace(benchmark, num_uops)
        baseline_ipc = None
        for name in PREDICTORS:
            stats = run_timing(trace, make_predictor(name),
                               config=GOLDEN_COVE)
            if name == "perfect-mdp":
                baseline_ipc = stats.ipc
            rows.append([
                benchmark,
                name,
                stats.ipc,
                f"{100 * (stats.ipc / baseline_ipc - 1):+.2f}%",
                stats.memory_squashes,
                stats.loads_bypassed,
                stats.accuracy.mispredictions,
            ])
    print()
    print(render_table(
        ["benchmark", "predictor", "IPC", "vs perfect MDP", "squashes",
         "bypassed", "MDP mispredicts"],
        rows,
        title="Predictor shootout (Figs. 7 and 9, three benchmarks)",
    ))
    print("Expected shape: MASCOT > PHAST ≈ Store Sets > NoSQ on "
          "dependence-rich benchmarks; all predictors tie on exchange2.")


if __name__ == "__main__":
    main()
