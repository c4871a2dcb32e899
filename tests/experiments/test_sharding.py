"""Splitting one grid across hosts by ``--benchmarks``.

Every suite cell belongs to one benchmark's trace, so the cells of a
benchmark list are exactly the cells of its parts.  Hosts that each run
a part into their own cache directory therefore compute the whole grid
between them, and once the directories are copied together, rerunning
the full command renders from the cache without one simulation.
"""

import json
import shutil

import pytest

from repro import cli
from repro.cli import main
from repro.experiments.parallel import Execution
from repro.experiments.result_cache import cell_key

BENCHMARKS = ["lbm", "xz", "mcf"]
HALVES = (["lbm"], ["xz", "mcf"])
N = 2_000


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One cache for every figure's runs: each cell computes once."""
    return tmp_path_factory.mktemp("shard-cache")


def _cell_keys(monkeypatch, figure, benchmarks, cache_dir):
    """The cell keys ``figure`` submits for ``benchmarks``."""
    keys = set()
    real = Execution.run

    def spy(self, cells):
        keys.update(cell_key(spec) for spec in cells)
        return real(self, cells)

    monkeypatch.setattr(Execution, "run", spy)
    cli._SUITE_FIGURES[figure](benchmarks, N,
                               execution=Execution(cache=cache_dir))
    monkeypatch.undo()
    return keys


class TestShardingContract:
    @pytest.mark.parametrize("figure", sorted(cli._SUITE_FIGURES))
    def test_grid_is_the_union_of_its_halves(self, figure, shared_cache,
                                             monkeypatch):
        full = _cell_keys(monkeypatch, figure, BENCHMARKS, shared_cache)
        first, second = (_cell_keys(monkeypatch, figure, half, shared_cache)
                         for half in HALVES)
        assert full
        assert first | second == full
        assert not first & second  # no cell is computed on both hosts


class TestMergedCacheDirectories:
    def test_merged_halves_render_with_zero_computed(self, tmp_path,
                                                     capsys):
        common = ["--uops", "3000"]
        assert main(["figure", "fig7", "--benchmarks", "exchange2", "lbm",
                     *common, "--no-cache"]) == 0
        serial = capsys.readouterr().out

        for index, half in enumerate((["exchange2"], ["lbm"])):
            assert main(["figure", "fig7", "--benchmarks", *half, *common,
                         "--cache-dir", str(tmp_path / f"host{index}")]) == 0
        capsys.readouterr()

        merged = tmp_path / "merged"
        for index in range(2):
            shutil.copytree(tmp_path / f"host{index}", merged,
                            dirs_exist_ok=True)
        metrics = tmp_path / "merged.jsonl"
        assert main(["figure", "fig7", "--benchmarks", "exchange2", "lbm",
                     *common, "--cache-dir", str(merged),
                     "--metrics", str(metrics)]) == 0
        assert capsys.readouterr().out == serial
        sweeps = [record for record in
                  map(json.loads, metrics.read_text().splitlines())
                  if record["event"] == "sweep"]
        assert sweeps
        assert sum(record["computed"] for record in sweeps) == 0
        assert all(record["cache_hits"] == record["cells"]
                   for record in sweeps)


class TestRetiredSpellings:
    """The worker protocol's CLI surface is gone: argparse refuses it."""

    @pytest.mark.parametrize("argv", [
        ["worker"],
        ["worker", "--port", "5000"],
        ["compare", "mascot", "--workers", "127.0.0.1:5000"],
        ["accuracy", "mascot", "--backend", "workers"],
        ["figure", "fig7", "--backend", "local"],
        ["doctor", "--workers", "127.0.0.1:5000"],
    ])
    def test_exits_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
