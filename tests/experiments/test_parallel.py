"""Determinism golden tests for the parallel suite execution engine.

The contract under test: ``jobs=N`` produces a grid **bit-identical** to
the serial path for any N, and a warm on-disk cache reproduces the same
grid without running a single simulation.
"""

import pytest

from repro.core.config import LION_COVE
from repro.experiments import parallel
from repro.experiments.parallel import (
    CellSpec,
    Execution,
    execute_cells,
    resolve_cache,
)
from repro.experiments.result_cache import ResultCache
from repro.experiments.suite import run_accuracy_suite, run_ipc_suite

#: ≥3 predictors × ≥3 benchmarks, as the determinism contract demands
#: (the perfect-mdp baseline joins automatically, making it 4 predictors).
PREDICTORS = ["mascot", "phast", "nosq"]
BENCHES = ["exchange2", "lbm", "perlbench1"]
N = 4_000


def _grids_identical(a, b):
    """Bit-identical comparison: exact float equality, full stats."""
    assert a.ipc == b.ipc  # exact ==, not approx: bit-identical IPC
    assert a.baseline == b.baseline
    for name, per_bench in a.stats.items():
        for bench, stats in per_bench.items():
            assert stats.to_dict() == b.stats[name][bench].to_dict()
    for name in a.ipc:
        assert a.normalised(name) == b.normalised(name)
        assert a.geomean(name) == b.geomean(name)


class TestIpcDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_ipc_suite(PREDICTORS, BENCHES, N,
                             execution=Execution(jobs=1))

    def test_parallel_matches_serial(self, serial):
        _grids_identical(run_ipc_suite(PREDICTORS, BENCHES, N,
                                       execution=Execution(jobs=4)),
                         serial)

    def test_cached_run_identical_without_recompute(self, serial, tmp_path,
                                                    monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        warm = run_ipc_suite(PREDICTORS, BENCHES, N,
                             execution=Execution(jobs=1, cache=cache))
        _grids_identical(warm, serial)
        assert cache.stores == len(BENCHES) * (len(PREDICTORS) + 1)

        # Spy on the compute function: a warm sweep must never call it.
        calls = []
        real = parallel.compute_cell
        monkeypatch.setattr(parallel, "compute_cell",
                            lambda spec: calls.append(spec) or real(spec))
        rerun = run_ipc_suite(PREDICTORS, BENCHES, N,
                              execution=Execution(jobs=1, cache=cache))
        assert calls == []
        _grids_identical(rerun, serial)

    def test_warm_cache_with_parallel_jobs(self, serial, tmp_path,
                                           monkeypatch):
        """Warm hits short-circuit before any pool is spawned."""
        cache_dir = tmp_path / "cache"
        run_ipc_suite(PREDICTORS, BENCHES, N,
                      execution=Execution(jobs=2, cache=cache_dir))
        monkeypatch.setattr(parallel, "compute_cell", _refuse_to_compute)
        rerun = run_ipc_suite(PREDICTORS, BENCHES, N,
                              execution=Execution(jobs=4, cache=cache_dir))
        _grids_identical(rerun, serial)


def _refuse_to_compute(spec):
    raise AssertionError(f"cell recomputed despite warm cache: {spec}")


class TestAccuracyDeterminism:
    def test_parallel_matches_serial(self):
        serial = run_accuracy_suite(PREDICTORS, BENCHES, N,
                                    execution=Execution(jobs=1))
        parallel_run = run_accuracy_suite(PREDICTORS, BENCHES, N,
                                          execution=Execution(jobs=2))
        for name in PREDICTORS:
            for bench in BENCHES:
                assert (serial[name][bench].to_dict()
                        == parallel_run[name][bench].to_dict())

    def test_cached_accuracy_run(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        first = run_accuracy_suite(["mascot"], BENCHES, N,
                                   execution=Execution(cache=cache_dir))
        monkeypatch.setattr(parallel, "compute_cell", _refuse_to_compute)
        second = run_accuracy_suite(["mascot"], BENCHES, N,
                                    execution=Execution(cache=cache_dir))
        for bench in BENCHES:
            assert (first["mascot"][bench].to_dict()
                    == second["mascot"][bench].to_dict())


class TestExecuteCells:
    def test_results_keyed_by_position_not_completion(self):
        """A mixed-cost batch comes back in request order."""
        cells = [
            CellSpec(mode="accuracy", benchmark=bench, num_uops=N,
                     predictor=name)
            for bench in ("lbm", "exchange2") for name in ("phast", "mascot")
        ]
        results = execute_cells(cells, jobs=3)
        singles = [execute_cells([cell], jobs=1)[0] for cell in cells]
        for merged, single in zip(results, singles):
            assert merged.to_dict() == single.to_dict()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            execute_cells([], jobs=0)

    def test_empty_batch(self):
        assert execute_cells([], jobs=4) == []

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CellSpec(mode="sideways", benchmark="lbm", num_uops=1,
                     predictor="mascot")
        with pytest.raises(ValueError):
            CellSpec(mode="timing", benchmark="lbm", num_uops=1,
                     predictor="mascot")  # no core config
        with pytest.raises(ValueError):
            CellSpec(mode="accuracy", benchmark="lbm", num_uops=1,
                     predictor="phast", track_f1=True)

    def test_specs_are_picklable(self):
        import pickle
        spec = CellSpec(mode="timing", benchmark="lbm", num_uops=100,
                        predictor="mascot", config=LION_COVE)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestResolveCache:
    def test_disabled_forms(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_path_form(self, tmp_path):
        cache = resolve_cache(tmp_path / "c")
        assert isinstance(cache, ResultCache)
        assert cache.directory == tmp_path / "c"

    def test_instance_passthrough(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache

    def test_true_uses_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache(True).directory == tmp_path / "env"


class TestFigureParallelism:
    """Spot-check that figure generators produce identical output via jobs."""

    def test_fig7_identical(self):
        from repro.experiments.figures import fig7_ipc_full
        serial = fig7_ipc_full(["exchange2", "lbm"], N)
        sharded = fig7_ipc_full(["exchange2", "lbm"], N,
                                execution=Execution(jobs=2))
        assert serial.render() == sharded.render()
        assert serial.suite.ipc == sharded.suite.ipc

    def test_fig14_f1_profile_identical(self, tmp_path):
        from repro.experiments.figures import fig14_f1_ranking
        serial = fig14_f1_ranking(["perlbench1"], 8_000, period_loads=1_000)
        cached = fig14_f1_ranking(
            ["perlbench1"], 8_000, period_loads=1_000,
            execution=Execution(jobs=2, cache=tmp_path))
        warm = fig14_f1_ranking(["perlbench1"], 8_000, period_loads=1_000,
                                execution=Execution(cache=tmp_path))
        assert serial.profile.ranked == cached.profile.ranked
        assert serial.profile.ranked == warm.profile.ranked
