"""Experiment harness: runners, suite sweeps and figure regeneration."""

from .figures import (
    fig2_smb_opportunities,
    fig7_ipc_full,
    fig8_mispredictions,
    fig9_ipc_mdp_only,
    fig10_prediction_mix,
    fig11_ablation,
    fig12_future_architectures,
    fig13_table_usage,
    fig14_f1_ranking,
    fig15_mascot_opt,
    table1_configuration,
    table2_sizes,
)
from .parallel import (
    CellSpec,
    Execution,
    compute_cell,
    execute_cells,
    resolve_cache,
)
from .reporting import format_percent, render_table
from .resilience import (
    CellExecutionError,
    CellFailure,
    CellTimeoutError,
    FailureKind,
    ResiliencePolicy,
)
from .result_cache import ResultCache, cell_key, default_cache_dir
from .runner import (
    DEFAULT_TRACE_LENGTH,
    PredictionRunResult,
    TraceCache,
    default_cache,
    run_prediction_only,
    run_timing,
)
from .sweeps import CoreSweepPoint, CoreSweepResult, sweep_core_parameter
from .suite import (
    PREDICTORS,
    IpcSuiteResult,
    make_predictor,
    run_accuracy_suite,
    run_ipc_suite,
)

__all__ = [
    "fig2_smb_opportunities",
    "fig7_ipc_full",
    "fig8_mispredictions",
    "fig9_ipc_mdp_only",
    "fig10_prediction_mix",
    "fig11_ablation",
    "fig12_future_architectures",
    "fig13_table_usage",
    "fig14_f1_ranking",
    "fig15_mascot_opt",
    "table1_configuration",
    "table2_sizes",
    "CellSpec",
    "Execution",
    "compute_cell",
    "execute_cells",
    "resolve_cache",
    "CellExecutionError",
    "CellFailure",
    "CellTimeoutError",
    "FailureKind",
    "ResiliencePolicy",
    "ResultCache",
    "cell_key",
    "default_cache_dir",
    "format_percent",
    "render_table",
    "DEFAULT_TRACE_LENGTH",
    "PredictionRunResult",
    "TraceCache",
    "default_cache",
    "run_prediction_only",
    "run_timing",
    "CoreSweepPoint",
    "CoreSweepResult",
    "sweep_core_parameter",
    "PREDICTORS",
    "IpcSuiteResult",
    "make_predictor",
    "run_accuracy_suite",
    "run_ipc_suite",
]
