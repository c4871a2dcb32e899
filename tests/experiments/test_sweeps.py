"""Tests for core-parameter sweeps."""

import json

import pytest

from repro.core.config import GOLDEN_COVE
from repro.experiments.parallel import Execution
from repro.experiments.sweeps import sweep_core_parameter


class TestSweep:
    def test_empty_variations_rejected(self):
        with pytest.raises(ValueError):
            sweep_core_parameter([], ["mascot"])

    def test_points_and_series(self):
        result = sweep_core_parameter(
            [{"rob_size": 128}, {"rob_size": 512}],
            ["mascot"],
            benchmarks=["exchange2"],
            num_uops=5_000,
        )
        assert len(result.points) == 2
        series = result.series("mascot")
        assert set(series) == {"rob_size=128", "rob_size=512"}
        for value in series.values():
            assert 0.5 < value < 1.5

    def test_metrics_record_every_point(self, tmp_path):
        """A core sweep takes the whole execution value, metrics included:
        each point's cells and its sweep summary land in one JSONL file."""
        path = tmp_path / "sweep.jsonl"
        sweep_core_parameter(
            [{"rob_size": 128}, {"rob_size": 512}],
            ["mascot"],
            benchmarks=["exchange2"],
            num_uops=5_000,
            execution=Execution(metrics=path),
        )
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        cells = [r for r in records if r["event"] == "cell"]
        sweeps = [r for r in records if r["event"] == "sweep"]
        # Two points, each mascot plus its own perfect-mdp baseline.
        assert len(cells) == 4
        assert len({r["core"] for r in cells}) == 2
        assert [r["cells"] for r in sweeps] == [2, 2]

    def test_each_point_has_own_baseline(self):
        result = sweep_core_parameter(
            [{"rob_size": 128}, {"rob_size": 512}],
            ["mascot"],
            benchmarks=["exchange2"],
            num_uops=5_000,
        )
        for point in result.points:
            assert point.suite.geomean("perfect-mdp") == pytest.approx(1.0)

    def test_configs_applied(self):
        result = sweep_core_parameter(
            [{"rob_size": 128}],
            ["mascot"],
            benchmarks=["exchange2"],
            num_uops=4_000,
        )
        assert result.points[0].config.rob_size == 128
        assert GOLDEN_COVE.rob_size == 512  # base untouched

    def test_monotone_helper(self):
        result = sweep_core_parameter(
            [{"rob_size": 256}, {"rob_size": 512}],
            ["perfect-mdp-smb"],
            benchmarks=["perlbench1"],
            num_uops=12_000,
        )
        # The helper returns a bool; the window-scaling *claim* is asserted
        # at full scale in benchmarks/bench_window_scaling.py.
        assert isinstance(result.monotone_increasing("perfect-mdp-smb"),
                          bool)
