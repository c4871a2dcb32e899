#!/usr/bin/env python3
"""Quickstart: run MASCOT on a synthetic benchmark and read the results.

This is the five-minute tour of the public API:

1. generate a trace for one of the SPEC CPU2017 stand-in benchmarks,
2. run the out-of-order timing model with MASCOT and with the perfect-MDP
   oracle every paper figure normalises against,
3. compare IPC, squashes and bypasses.

Run:  python examples/quickstart.py [benchmark] [num_uops]
"""

import sys

from repro import (
    GOLDEN_COVE,
    Mascot,
    PerfectMDP,
    generate_trace,
    suite_names,
)
from repro.experiments import run_timing


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "perlbench1"
    num_uops = int(sys.argv[2]) if len(sys.argv) > 2 else 60_000
    if benchmark not in suite_names():
        raise SystemExit(
            f"unknown benchmark {benchmark!r}; choose from: "
            + ", ".join(suite_names())
        )

    print(f"Generating {num_uops:,} micro-ops of {benchmark!r} ...")
    trace = generate_trace(benchmark, num_uops)
    loads = sum(1 for u in trace if u.is_load)
    deps = sum(1 for u in trace if u.is_load and u.has_dependence)
    print(f"  {loads:,} loads, {deps / loads:.1%} with an in-flight "
          f"store dependence\n")

    print(f"Simulating on {GOLDEN_COVE.name} (Table I configuration) ...")
    baseline = run_timing(trace, PerfectMDP())
    mascot_stats = run_timing(trace, Mascot())

    speedup = 100.0 * (mascot_stats.ipc / baseline.ipc - 1.0)
    acc = mascot_stats.accuracy

    print(f"  perfect MDP oracle : IPC {baseline.ipc:.3f}")
    print(f"  MASCOT (MDP + SMB) : IPC {mascot_stats.ipc:.3f} "
          f"({speedup:+.2f}% vs oracle)")
    print()
    print(f"  loads bypassed (SMB)        : {mascot_stats.loads_bypassed:,}")
    print(f"  loads forwarded via SB      : {mascot_stats.loads_forwarded:,}")
    print(f"  memory-order squashes       : {mascot_stats.memory_squashes:,}")
    print(f"  dependence mispredictions   : {acc.mispredictions:,} "
          f"({acc.mpki():.2f} MPKI)")
    print(f"     false dependencies       : {acc.false_dependencies:,}")
    print(f"     speculative errors       : {acc.speculative_errors:,}")
    print()
    print(f"  predictor storage           : "
          f"{Mascot().storage_kib:.1f} KiB (paper: 14 KiB)")


if __name__ == "__main__":
    main()
