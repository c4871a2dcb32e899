"""Tests for suite orchestration."""

import pytest

from repro.experiments.suite import (
    PREDICTORS,
    make_predictor,
    run_accuracy_suite,
    run_ipc_suite,
)
from repro.predictors.mascot import Mascot
from repro.predictors.perfect import PerfectMDP

BENCHES = ["exchange2", "lbm"]
N = 6_000


class TestFactories:
    def test_all_factories_construct(self):
        for name in PREDICTORS:
            predictor = make_predictor(name)
            assert predictor is not None

    def test_fresh_instances(self):
        assert make_predictor("mascot") is not make_predictor("mascot")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_predictor("oracle-of-delphi")

    def test_named_variants_configured(self):
        assert not make_predictor("mascot-mdp").supports_smb
        assert make_predictor("mascot-opt").storage_kib < Mascot().storage_kib
        assert not make_predictor(
            "tage-no-nd"
        ).config.allocate_nondependencies


class TestIpcSuite:
    def test_grid_complete(self):
        result = run_ipc_suite(["mascot"], BENCHES, N)
        assert set(result.ipc["mascot"]) == set(BENCHES)
        assert set(result.ipc["perfect-mdp"]) == set(BENCHES)

    def test_baseline_added_automatically(self):
        result = run_ipc_suite(["phast"], BENCHES, N)
        assert "perfect-mdp" in result.ipc

    def test_normalised_and_geomean(self):
        result = run_ipc_suite(["mascot"], BENCHES, N)
        normalised = result.normalised("mascot")
        assert set(normalised) == set(BENCHES)
        geomean = result.geomean("mascot")
        assert 0.5 < geomean < 1.5

    def test_baseline_normalises_to_one(self):
        result = run_ipc_suite(["mascot"], BENCHES, N)
        assert result.geomean("perfect-mdp") == pytest.approx(1.0)

    def test_speedup_over(self):
        result = run_ipc_suite(["mascot", "phast"], BENCHES, N)
        delta = result.geomean_speedup_over("mascot", "phast")
        assert -20.0 < delta < 20.0

    def test_stats_kept(self):
        result = run_ipc_suite(["mascot"], BENCHES, N)
        stats = result.stats["mascot"]["lbm"]
        assert stats.instructions == N


class TestAccuracySuite:
    def test_grid_complete(self):
        results = run_accuracy_suite(["mascot", "phast"], BENCHES, N)
        assert set(results) == {"mascot", "phast"}
        for per_bench in results.values():
            assert set(per_bench) == set(BENCHES)

    def test_loads_counted(self):
        results = run_accuracy_suite(["mascot"], BENCHES, N)
        for run in results["mascot"].values():
            assert run.accuracy.loads > 0

    def test_specs_keyed_by_name(self):
        """A derived spec is a grid row of its own, under its own name."""
        spec = PREDICTORS["mascot-mdp"].with_(name="mascot/no-smb")
        results = run_accuracy_suite([spec, "mascot-mdp"], ["lbm"], N)
        assert set(results) == {"mascot/no-smb", "mascot-mdp"}
        assert (results["mascot/no-smb"]["lbm"].to_dict()
                == results["mascot-mdp"]["lbm"].to_dict())

    def test_one_name_for_two_specs_is_rejected(self):
        variant = PREDICTORS["store-sets"].with_(footprint_scale=1)
        with pytest.raises(ValueError, match="distinct"):
            run_accuracy_suite(["store-sets", variant], ["lbm"], N)
        with pytest.raises(ValueError, match="distinct"):
            run_ipc_suite([variant, "store-sets"], ["lbm"], N)
