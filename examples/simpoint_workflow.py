#!/usr/bin/env python3
"""SimPoint workflow — evaluating on representative regions.

The paper simulates 100M-instruction SimPoint intervals instead of whole
benchmarks.  This example runs the same workflow on a synthetic trace
with :mod:`repro.sampling`:

1. generate a long trace,
2. fingerprint its regions (basic-block plus memory-access vectors),
   cluster them and pick one medoid region per cluster,
3. replay only those regions, warmed, and reconstruct full-trace IPC
   with a confidence interval,
4. compare the estimate (and its cost) against simulating everything on
   the same batched engine.

Run:  python examples/simpoint_workflow.py [benchmark] [num_uops]
"""

import sys
import time

from repro import Mascot, generate_trace
from repro.experiments.runner import run_timing
from repro.sampling import SamplingPolicy, run_sampled_timing, select_regions


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc1"
    num_uops = int(sys.argv[2]) if len(sys.argv) > 2 else 120_000
    policy = SamplingPolicy(interval_length=max(num_uops // 12, 2_000),
                            max_k=4)

    print(f"Generating {num_uops:,} micro-ops of {benchmark!r} ...")
    trace = generate_trace(benchmark, num_uops)

    print(f"Selecting regions ({num_uops // policy.interval_length} "
          f"intervals of {policy.interval_length:,}) ...")
    t0 = time.perf_counter()
    selection = select_regions(trace, policy)
    for region in selection.regions:
        print(f"  region {region.index:3d} "
              f"[{region.start:,}..{region.end:,})  "
              f"weight {region.weight:.2f}  (stands for "
              f"{region.cluster_size} intervals)")

    sampled = run_sampled_timing(trace, Mascot, policy, selection=selection)
    sampled_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    full = run_timing(trace, Mascot()).ipc
    full_time = time.perf_counter() - t0

    estimate = sampled.stats.ipc
    lo, hi = sampled.ipc_ci
    error = 100.0 * (estimate / full - 1.0)
    print()
    print(f"full simulation      : IPC {full:.4f}  ({full_time:.1f}s)")
    print(f"sampled estimate     : IPC {estimate:.4f} in [{lo:.4f}, "
          f"{hi:.4f}]  ({sampled_time:.1f}s, {error:+.1f}% error)")
    print(f"full IPC inside CI   : {'yes' if lo <= full <= hi else 'no'}")
    print(f"simulated fraction   : "
          f"{sampled.simulated_uops / len(trace):.0%} of the trace "
          f"(warmup included)")


if __name__ == "__main__":
    main()
