"""Core-parameter sweeps: how predictor value scales with the machine.

Fig. 12's finding — larger windows raise the SMB ceiling — is one point of
a more general question this module answers mechanically: *sweep any
:class:`~repro.core.config.CoreConfig` field (or several together) and
measure each predictor against the perfect-MDP baseline of the same core.*
Used by ``benchmarks/bench_window_scaling.py`` to extend Fig. 12 into a
full ROB-size curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.config import GOLDEN_COVE, CoreConfig
from .parallel import Execution
from .suite import IpcSuiteResult, run_ipc_suite

__all__ = ["CoreSweepPoint", "CoreSweepResult", "sweep_core_parameter"]


@dataclass
class CoreSweepPoint:
    """One core configuration's results."""

    label: str
    config: CoreConfig
    suite: IpcSuiteResult

    def geomean(self, predictor: str) -> float:
        return self.suite.geomean(predictor)


@dataclass
class CoreSweepResult:
    """All sweep points, in sweep order."""

    points: List[CoreSweepPoint] = field(default_factory=list)

    def series(self, predictor: str) -> Dict[str, float]:
        """label -> geomean IPC vs that core's own perfect MDP."""
        return {p.label: p.geomean(predictor) for p in self.points}

    def monotone_increasing(self, predictor: str,
                            tolerance: float = 0.002) -> bool:
        """Whether the predictor's headroom grows along the sweep."""
        values = [p.geomean(predictor) for p in self.points]
        return all(b >= a - tolerance for a, b in zip(values, values[1:]))


def sweep_core_parameter(
    variations: Sequence[Mapping[str, object]],
    predictors: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    num_uops: int = 40_000,
    base: CoreConfig = GOLDEN_COVE,
    execution: Execution = Execution(),
) -> CoreSweepResult:
    """Run the predictor set on each varied core.

    ``variations`` is a list of field-override mappings applied to ``base``
    (e.g. ``[{"rob_size": 256}, {"rob_size": 512}, {"rob_size": 1024}]``).
    Window-coupled fields scale sensibly together only if the caller says
    so — the sweep applies exactly what is given.

    Each point is normalised to a perfect-MDP run **on the same core**, so
    the series isolates how much the *predictor* is worth as the machine
    grows, exactly as Fig. 12 does for its two cores.  ``execution`` is
    forwarded to every point's
    :func:`~repro.experiments.suite.run_ipc_suite`; the varied core config
    is part of each cell's cache key, so points never alias.
    """
    if not variations:
        raise ValueError("no variations to sweep")
    result = CoreSweepResult()
    for overrides in variations:
        label = ",".join(f"{k}={v}" for k, v in overrides.items())
        config = base.with_(name=f"{base.name}[{label}]", **overrides)
        suite = run_ipc_suite(list(predictors), benchmarks, num_uops,
                              config=config, execution=execution)
        result.points.append(CoreSweepPoint(label=label, config=config,
                                            suite=suite))
    return result
