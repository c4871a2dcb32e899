"""Tests for the figure/table generators (reduced-size runs).

Each figure function is exercised on a two-benchmark, short-trace grid:
enough to validate structure, rendering and the qualitative relations the
paper reports, while keeping the suite fast.  The full-scale regenerations
live in benchmarks/.
"""

import pytest

from repro.experiments import figures
from repro.core.config import GOLDEN_COVE, LION_COVE

BENCHES = ["perlbench1", "lbm"]
N = 8_000


@pytest.fixture(scope="module")
def fig2():
    return figures.fig2_smb_opportunities(BENCHES, N)


class TestFig2:
    def test_structure(self, fig2):
        assert set(fig2.percentages) == set(BENCHES)
        for per in fig2.percentages.values():
            assert set(per) == {"DirectBypass", "NoOffset", "Offset",
                                "MDP Only"}

    def test_direct_dominates(self, fig2):
        """Fig. 2: 'the overwhelming fraction of opportunities occur in
        the simple case'."""
        for per in fig2.percentages.values():
            assert per["DirectBypass"] >= per["Offset"]

    def test_percent_of_loads_bounded(self, fig2):
        for per in fig2.percentages.values():
            total = sum(per.values())
            assert 0.0 <= total <= 100.0

    def test_render(self, fig2):
        text = fig2.render()
        assert "Fig. 2" in text
        for bench in BENCHES:
            assert bench in text


class TestTables:
    def test_table1_rows(self):
        result = figures.table1_configuration(GOLDEN_COVE)
        text = result.render()
        assert "512/204/192/114" in text
        assert "golden-cove" in text

    def test_table1_lion_cove(self):
        result = figures.table1_configuration(LION_COVE)
        assert "576" in result.render()

    def test_table2_contains_paper_sizes(self):
        text = figures.table2_sizes().render()
        assert "14.00" in text   # MASCOT
        assert "14.50" in text   # PHAST
        assert "19.00" in text   # NoSQ


class TestIpcFigures:
    def test_fig7_structure(self):
        result = figures.fig7_ipc_full(BENCHES, N)
        assert result.predictors == ["nosq", "phast", "mascot"]
        for p in result.predictors:
            assert set(result.normalised(p)) == set(BENCHES)
        text = result.render()
        assert "geomean" in text

    def test_fig9_structure(self):
        result = figures.fig9_ipc_mdp_only(BENCHES, N)
        assert result.predictors == ["store-sets", "phast", "mascot-mdp"]
        assert "Fig. 9" in result.render()


class TestFig8:
    def test_totals_and_split(self):
        result = figures.fig8_mispredictions(BENCHES, N)
        for name in ("nosq", "phast", "mascot"):
            assert result.totals[name] >= 0
            assert (result.false_dependencies[name]
                    + result.speculative_errors[name]
                    >= result.false_dependencies[name])
        assert "Fig. 8" in result.render()

    def test_mascot_beats_baselines(self):
        """The paper's central accuracy claim, at reduced scale."""
        result = figures.fig8_mispredictions(BENCHES, 15_000)
        assert result.totals["mascot"] < result.totals["nosq"]
        assert result.totals["mascot"] < result.totals["phast"]

    def test_reduction_vs(self):
        result = figures.fig8_mispredictions(BENCHES, N)
        reduction = result.reduction_vs("mascot", "nosq")
        assert 0.0 <= reduction <= 100.0


class TestFig10:
    def test_mixes_sum_to_100(self):
        result = figures.fig10_prediction_mix(BENCHES, N)
        for per in result.prediction_mix.values():
            assert sum(per.values()) == pytest.approx(100.0)

    def test_no_dep_dominates(self):
        """Fig. 10: 'over 80% of all predictions are of no dependency'
        on average — at reduced scale we check a clear majority."""
        result = figures.fig10_prediction_mix(["lbm"], N)
        assert result.prediction_mix["lbm"]["no_dep"] > 50.0

    def test_render(self):
        assert "Fig. 10" in figures.fig10_prediction_mix(BENCHES, N).render()


class TestFig11:
    def test_ablation_has_more_false_deps(self):
        result = figures.fig11_ablation(BENCHES, N)
        assert result.false_dep_ratio > 1.0
        assert "Fig. 11" in result.render()


class TestFig12:
    def test_cores_compared(self):
        result = figures.fig12_future_architectures(
            ["perlbench1"], N, cores=(GOLDEN_COVE, LION_COVE)
        )
        assert set(result.geomeans) == {"golden-cove", "lion-cove"}
        for values in result.geomeans.values():
            assert set(values) == {"perfect-mdp-smb", "mascot"}
        assert "Fig. 12" in result.render()


class TestFig13:
    def test_shares_sum_to_100(self):
        result = figures.fig13_table_usage(BENCHES, N)
        assert sum(result.shares) == pytest.approx(100.0)
        assert len(result.shares) == 9
        assert result.labels[-1] == "base"

    def test_base_is_large(self):
        """Most loads have no matching entry or hit low tables."""
        result = figures.fig13_table_usage(["lbm"], N)
        assert result.shares[-1] > 10.0


class TestFig14:
    def test_profile_structure(self):
        result = figures.fig14_f1_ranking(["perlbench1"], N,
                                          period_loads=1000)
        assert len(result.profile.ranked) == 8
        assert "Fig. 14" in result.render()


class TestFig15:
    def test_variants_and_sizes(self):
        result = figures.fig15_mascot_opt(BENCHES, N)
        assert set(result.points) == {
            "mascot", "mascot-opt", "mascot-opt-tag2", "mascot-opt-tag4",
            "mascot-opt-tag6",
        }
        ratio, kib = result.points["mascot-opt-tag4"]
        assert kib == pytest.approx(10.1, abs=0.1)
        assert 0.8 < ratio < 1.2
        assert "Fig. 15" in result.render()

    def test_sizes_strictly_decreasing(self):
        result = figures.fig15_mascot_opt(BENCHES, N)
        sizes = [result.points[n][1] for n in
                 ("mascot", "mascot-opt", "mascot-opt-tag2",
                  "mascot-opt-tag4", "mascot-opt-tag6")]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


class TestPartialGridAnnotation:
    """Under --keep-going, aggregate figures must not silently publish
    totals computed over a partial grid: the excluded cells are recorded
    and render() carries an explicit warning footer."""

    def test_fig8_records_and_renders_excluded_cells(self, monkeypatch):
        from repro.experiments.parallel import Execution
        from repro.experiments.resilience import ResiliencePolicy
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/phast")
        result = figures.fig8_mispredictions(
            BENCHES, N,
            execution=Execution(policy=ResiliencePolicy(fail_fast=False)))
        assert len(result.failures) == 1
        assert result.failures[0].spec.benchmark == "lbm"
        text = result.render()
        assert "WARNING" in text and "excluded" in text
        assert "lbm/phast" in text

    def test_complete_grid_renders_no_warning(self):
        result = figures.fig8_mispredictions(BENCHES, N)
        assert result.failures == []
        assert "WARNING" not in result.render()

    def test_fig13_records_excluded_cells(self, monkeypatch):
        from repro.experiments.parallel import Execution
        from repro.experiments.resilience import ResiliencePolicy
        monkeypatch.setenv("REPRO_FAULT_INJECT", "error=lbm/mascot")
        result = figures.fig13_table_usage(
            BENCHES, N,
            execution=Execution(policy=ResiliencePolicy(fail_fast=False)))
        assert len(result.failures) == 1
        assert "WARNING" in result.render()
