"""repro — a reproduction of MASCOT (HPCA 2025).

MASCOT is a TAGE-like predictor that unifies memory-dependence prediction
(MDP) and speculative memory bypassing (SMB) by learning context-dependent
*non-dependencies* alongside dependencies.  This package implements the
predictor, every baseline the paper compares against (PHAST, Store Sets,
NoSQ, a no-non-dependence TAGE ablation, perfect oracles), and the full
evaluation substrate: a synthetic SPEC CPU2017 stand-in workload generator,
branch predictors, a three-level cache hierarchy, and a trace-driven
out-of-order timing model.

Quickstart::

    from repro import Mascot, generate_trace
    from repro.experiments import run_timing

    trace = generate_trace("perlbench1", 50_000)
    stats = run_timing(trace, Mascot())
    print(f"IPC {stats.ipc:.3f}, "
          f"{stats.loads_bypassed} loads bypassed, "
          f"{stats.accuracy.mispredictions} dependence mispredictions")

See DESIGN.md for the system inventory and the per-experiment index, and
EXPERIMENTS.md for paper-vs-measured results.
"""

from .analysis import (
    AccuracyStats,
    Outcome,
    OutcomeKind,
    classify,
    expected_drain_from_max,
)
from .core import GOLDEN_COVE, LION_COVE, CoreConfig, Pipeline, PipelineStats
from .memory import Cache, HierarchyConfig, MemoryHierarchy
from .predictors import (
    MASCOT_DEFAULT,
    MASCOT_OPT,
    ActualOutcome,
    Mascot,
    MascotConfig,
    MDPredictor,
    NoSQ,
    PerfectMDP,
    PerfectMDPSMB,
    Phast,
    Prediction,
    PredictionKind,
    StoreSets,
    mascot_opt_reduced_tags,
)
from .trace import (
    SPEC_SUITE,
    BypassClass,
    MicroOp,
    OpClass,
    TraceGenerator,
    WorkloadProfile,
    build_program,
    generate_trace,
    get_profile,
    suite_names,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyStats",
    "Outcome",
    "OutcomeKind",
    "classify",
    "expected_drain_from_max",
    "GOLDEN_COVE",
    "LION_COVE",
    "CoreConfig",
    "Pipeline",
    "PipelineStats",
    "Cache",
    "HierarchyConfig",
    "MemoryHierarchy",
    "MASCOT_DEFAULT",
    "MASCOT_OPT",
    "ActualOutcome",
    "Mascot",
    "MascotConfig",
    "MDPredictor",
    "NoSQ",
    "PerfectMDP",
    "PerfectMDPSMB",
    "Phast",
    "Prediction",
    "PredictionKind",
    "StoreSets",
    "mascot_opt_reduced_tags",
    "SPEC_SUITE",
    "BypassClass",
    "MicroOp",
    "OpClass",
    "TraceGenerator",
    "WorkloadProfile",
    "build_program",
    "generate_trace",
    "get_profile",
    "suite_names",
    "__version__",
]
