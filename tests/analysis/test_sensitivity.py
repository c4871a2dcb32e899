"""Tests for the grid-sensitivity apparatus (Sec. IV-B)."""

import pytest

from repro.analysis.sensitivity import (
    GridPointResult,
    ParameterGrid,
    SensitivityStudy,
    StudyResults,
)
from repro.predictors.configs import MASCOT_DEFAULT


class TestParameterGrid:
    def test_cartesian_size(self):
        grid = ParameterGrid({"usefulness_bits": [2, 3],
                              "bypass_bits": [1, 2, 3]})
        assert len(grid) == 6
        assert len(list(grid.points())) == 6

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            ParameterGrid({"not_a_field": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"usefulness_bits": []})
        with pytest.raises(ValueError):
            ParameterGrid({})

    def test_tuple_valued_axes(self):
        grid = ParameterGrid({
            "history_lengths": [(0, 2, 4, 8, 16, 32, 64, 128),
                                (0, 4, 8, 16, 32, 64, 128, 256)],
        })
        assert len(grid) == 2


class TestStudyResults:
    def _point(self, rate, kib, **params):
        return GridPointResult(
            parameters=params, config=MASCOT_DEFAULT,
            mispredictions=int(rate * 1000), false_dependencies=0,
            speculative_errors=0, loads=1000, storage_kib=kib,
        )

    def test_best_by_rate(self):
        results = StudyResults(points=[
            self._point(0.10, 14.0, a=1),
            self._point(0.05, 14.0, a=2),
        ])
        assert results.best().parameters == {"a": 2}

    def test_storage_breaks_ties(self):
        results = StudyResults(points=[
            self._point(0.05, 14.0, a=1),
            self._point(0.05, 10.0, a=2),
        ])
        assert results.best().parameters == {"a": 2}

    def test_pareto_front(self):
        results = StudyResults(points=[
            self._point(0.05, 14.0, a=1),   # accurate, big
            self._point(0.08, 10.0, a=2),   # smaller, worse
            self._point(0.09, 12.0, a=3),   # dominated by both? bigger AND
                                            # worse than a=2 -> excluded
        ])
        front = results.pareto_front()
        assert {p.parameters["a"] for p in front} == {1, 2}

    def test_empty_best_raises(self):
        with pytest.raises(ValueError):
            StudyResults().best()


class TestSensitivityStudy:
    def test_small_grid_runs(self):
        grid = ParameterGrid({"usefulness_bits": [2, 3]})
        study = SensitivityStudy(grid, benchmarks=["exchange2"])
        results = study.run(num_uops=5_000)
        assert len(results.points) == 2
        for point in results.points:
            assert point.loads > 0
            assert point.storage_kib > 0

    def test_paper_default_counters_competitive(self):
        """The paper's 3-bit usefulness / 2-bit bypass choice should not be
        dominated by trivially smaller counters on a dependence-rich mix."""
        grid = ParameterGrid({"usefulness_bits": [1, 3]})
        study = SensitivityStudy(grid, benchmarks=["perlbench1"])
        results = study.run(num_uops=20_000)
        by_bits = {p.parameters["usefulness_bits"]: p
                   for p in results.points}
        assert (by_bits[3].misprediction_rate
                <= by_bits[1].misprediction_rate * 1.2)

    def test_points_are_cells_with_unchanged_results(self, monkeypatch):
        """Each (point, benchmark) is one accuracy cell through the cell
        engine, and the study sums exactly what a direct prediction-only
        replay of each point's Mascot gives."""
        from repro.experiments import parallel
        from repro.experiments.runner import (default_cache,
                                              run_prediction_only)
        from repro.predictors.mascot import Mascot

        computed = []
        real = parallel.compute_cell

        def spy(spec):
            computed.append(spec)
            return real(spec)

        monkeypatch.setattr(parallel, "compute_cell", spy)
        grid = ParameterGrid({"bypass_bits": [1, 3]})
        benchmarks = ["exchange2", "lbm"]
        results = SensitivityStudy(grid, benchmarks).run(num_uops=4_000)
        assert len(computed) == len(grid) * len(benchmarks)
        assert len(set(computed)) == len(computed)

        for point in results.points:
            runs = [run_prediction_only(default_cache().get(bench, 4_000),
                                        Mascot(point.config), warmup=1_000)
                    for bench in benchmarks]
            expected = GridPointResult(
                parameters=point.parameters, config=point.config,
                mispredictions=sum(r.accuracy.mispredictions for r in runs),
                false_dependencies=sum(r.accuracy.false_dependencies
                                       for r in runs),
                speculative_errors=sum(r.accuracy.speculative_errors
                                       for r in runs),
                loads=sum(r.accuracy.loads for r in runs),
                storage_kib=Mascot(point.config).storage_kib,
            )
            assert point == expected
