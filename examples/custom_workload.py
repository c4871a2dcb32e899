#!/usr/bin/env python3
"""Build a custom workload profile and study predictor behaviour on it.

The suite profiles stand in for SPEC, but :class:`WorkloadProfile` is a
public knob-set: this example constructs a deliberately adversarial
"interpreter" workload — nearly every dependence is branch-conditional in
the Fig. 3 pattern — and shows how the predictor gap widens, then sweeps
the conditional fraction to map where MASCOT's non-dependence allocation
starts paying.

Run:  python examples/custom_workload.py [num_uops]
"""

import sys

from repro import Mascot, PerfectMDP, Phast, WorkloadProfile
from repro.experiments import render_table, run_timing
from repro.trace import TraceGenerator, build_program
from repro.trace.uop import BypassClass


def interpreter_profile(conditional: float) -> WorkloadProfile:
    """An interpreter-like core loop: dense, conditional store/load
    traffic through a virtual stack."""
    return WorkloadProfile(
        name=f"interp-cond{int(conditional * 100)}",
        frac_load=0.30, frac_store=0.18, frac_branch=0.18, frac_fp=0.00,
        frac_indirect=0.10,
        dep_fraction=0.5,
        bypass_mix={
            BypassClass.DIRECT: 0.85,
            BypassClass.NO_OFFSET: 0.06,
            BypassClass.OFFSET: 0.04,
            BypassClass.MDP_ONLY: 0.05,
        },
        conditional_dep_fraction=conditional,
        tight_conditional_fraction=0.8,
        guard_taken_bias=0.7,
        branch_pattern_fraction=0.7,
        chain_bias=0.7, load_consumer_fraction=0.6,
        footprint=1 << 18, stride_fraction=0.5,
        num_segments=30, segment_length_mean=8.0,
    )


def main() -> None:
    num_uops = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000

    rows = []
    for conditional in (0.0, 0.25, 0.5, 0.75):
        profile = interpreter_profile(conditional)
        program = build_program(profile, seed=0)
        trace = TraceGenerator(program, seed=1).generate(num_uops)
        baseline = run_timing(trace, PerfectMDP())
        mascot = run_timing(trace, Mascot())
        phast = run_timing(trace, Phast())
        rows.append([
            f"{conditional:.0%}",
            f"{100 * (mascot.ipc / baseline.ipc - 1):+.2f}%",
            f"{100 * (phast.ipc / baseline.ipc - 1):+.2f}%",
            mascot.accuracy.false_dependencies,
            phast.accuracy.false_dependencies,
        ])
    print(render_table(
        ["conditional deps", "MASCOT IPC", "PHAST IPC",
         "MASCOT false deps", "PHAST false deps"],
        rows,
        title="Custom interpreter workload: the MASCOT-PHAST gap vs how "
              "conditional the dependencies are",
    ))
    print("Expectation: with no conditional dependencies the predictors "
          "tie; as the Fig. 3 pattern dominates, PHAST accumulates false "
          "dependencies while MASCOT's non-dependence entries absorb them.")


if __name__ == "__main__":
    main()
