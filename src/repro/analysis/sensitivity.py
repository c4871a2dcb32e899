"""Grid-based sensitivity studies over MASCOT's parameters.

Sec. IV-B: "The sizes of counters and the global history lengths were
selected via a grid-based sensitivity study."  This module provides the
apparatus: declare a parameter grid over :class:`MascotConfig` fields, run
every point over a benchmark set (prediction-only for speed, or timing for
IPC), and rank the configurations.

Example::

    grid = ParameterGrid({
        "usefulness_bits": [2, 3, 4],
        "bypass_bits": [1, 2, 3],
    })
    study = SensitivityStudy(grid, benchmarks=["perlbench1", "gcc1"])
    results = study.run(num_uops=30_000)
    best = results.best()
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..predictors.configs import MASCOT_DEFAULT, MascotConfig
from ..predictors.mascot import Mascot
from ..predictors.registry import PredictorSpec
from ..trace.profiles import suite_names
from ..experiments.parallel import CellSpec, execute_cells

__all__ = ["ParameterGrid", "GridPointResult", "StudyResults",
           "SensitivityStudy"]


class ParameterGrid:
    """The cartesian product of per-parameter candidate values.

    Keys must be :class:`MascotConfig` field names; tuple-valued fields
    (``history_lengths``, ``table_entries``, ``tag_bits``) are supported by
    listing whole tuples as candidates.
    """

    def __init__(self, axes: Mapping[str, Sequence]):
        if not axes:
            raise ValueError("grid needs at least one axis")
        valid_fields = set(MascotConfig.__dataclass_fields__)
        for name in axes:
            if name not in valid_fields:
                raise KeyError(
                    f"{name!r} is not a MascotConfig field; known: "
                    + ", ".join(sorted(valid_fields))
                )
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no candidate values")
        self.axes = {name: list(values) for name, values in axes.items()}

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def points(self) -> Iterator[Dict[str, object]]:
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            yield dict(zip(names, combo))


@dataclass
class GridPointResult:
    """One configuration's aggregate outcome."""

    parameters: Dict[str, object]
    config: MascotConfig
    mispredictions: int
    false_dependencies: int
    speculative_errors: int
    loads: int
    storage_kib: float

    @property
    def misprediction_rate(self) -> float:
        return self.mispredictions / self.loads if self.loads else 0.0


@dataclass
class StudyResults:
    """All grid points, with ranking helpers."""

    points: List[GridPointResult] = field(default_factory=list)

    def best(self) -> GridPointResult:
        """Lowest misprediction rate; storage breaks ties."""
        if not self.points:
            raise ValueError("no results")
        return min(self.points,
                   key=lambda p: (p.misprediction_rate, p.storage_kib))

    def ranked(self) -> List[GridPointResult]:
        return sorted(self.points,
                      key=lambda p: (p.misprediction_rate, p.storage_kib))

    def pareto_front(self) -> List[GridPointResult]:
        """Configurations not dominated in (storage, misprediction rate)."""
        front: List[GridPointResult] = []
        for candidate in sorted(self.points, key=lambda p: p.storage_kib):
            if all(candidate.misprediction_rate < kept.misprediction_rate
                   for kept in front) or not front:
                front.append(candidate)
        return front


class SensitivityStudy:
    """Run a :class:`ParameterGrid` over a benchmark set."""

    def __init__(
        self,
        grid: ParameterGrid,
        benchmarks: Optional[Sequence[str]] = None,
        base_config: MascotConfig = MASCOT_DEFAULT,
    ):
        self.grid = grid
        self.benchmarks = (
            list(benchmarks) if benchmarks is not None else suite_names()
        )
        self.base_config = base_config

    def run(self, num_uops: int = 30_000,
            warmup: Optional[int] = None) -> StudyResults:
        """One accuracy cell per (point, benchmark), serial and uncached."""
        if warmup is None:
            warmup = num_uops // 4
        points = [(p, self.base_config.with_(name=self._point_name(p),
                                             **self._clamped(p)))
                  for p in self.grid.points()]
        cells = iter(execute_cells([
            CellSpec(mode="accuracy", benchmark=benchmark,
                     num_uops=num_uops, warmup=warmup,
                     predictor=PredictorSpec(config.name, Mascot,
                                             config=config))
            for _, config in points for benchmark in self.benchmarks
        ]))
        results = StudyResults()
        for parameters, config in points:
            runs = [next(cells).accuracy for _ in self.benchmarks]
            results.points.append(GridPointResult(
                parameters=parameters, config=config,
                mispredictions=sum(r.mispredictions for r in runs),
                false_dependencies=sum(r.false_dependencies for r in runs),
                speculative_errors=sum(r.speculative_errors for r in runs),
                loads=sum(r.loads for r in runs),
                storage_kib=Mascot(config).storage_kib,
            ))
        return results

    def _clamped(self, parameters: Mapping[str, object]) -> Dict[str, object]:
        """Derive config kwargs, clamping allocation constants to a swept
        counter width (a 2-bit usefulness counter cannot start entries at
        the default of 6) unless the user swept them explicitly."""
        kwargs: Dict[str, object] = dict(parameters)
        usefulness_bits = kwargs.get(
            "usefulness_bits", self.base_config.usefulness_bits
        )
        maximum = (1 << int(usefulness_bits)) - 1
        if "alloc_usefulness_dep" not in kwargs:
            kwargs["alloc_usefulness_dep"] = min(
                self.base_config.alloc_usefulness_dep, maximum
            )
        if "alloc_usefulness_nondep" not in kwargs:
            kwargs["alloc_usefulness_nondep"] = max(
                1, min(self.base_config.alloc_usefulness_nondep, maximum)
            )
        return kwargs

    @staticmethod
    def _point_name(parameters: Mapping[str, object]) -> str:
        parts = [f"{k}={v}" for k, v in sorted(parameters.items())]
        return "grid[" + ",".join(parts) + "]"
