"""Fig. 8 — total mispredictions and false-dep/speculative split.

Paper: MASCOT reduces total errors by 98% vs NoSQ and 85% vs PHAST;
false dependencies drop 91% and speculative errors 39% vs PHAST.
"""

from repro.experiments import fig8_mispredictions

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig8_mispredictions(benchmark):
    result = run_once(
        benchmark, lambda: fig8_mispredictions(bench_suite(), bench_uops(),
                                     execution=bench_execution())
    )
    print()
    print(result.render())
    print(f"reduction vs NoSQ : {result.reduction_vs('mascot', 'nosq'):.1f}%"
          " (paper: 98%)")
    print(f"reduction vs PHAST: {result.reduction_vs('mascot', 'phast'):.1f}%"
          " (paper: 85%)")
    fd_cut = 100 * (1 - result.false_dependencies["mascot"]
                    / max(result.false_dependencies["phast"], 1))
    print(f"false-dependence cut vs PHAST: {fd_cut:.1f}% (paper: 91%)")
    assert result.totals["mascot"] < result.totals["phast"]
    assert result.totals["mascot"] < result.totals["nosq"]
    assert (result.false_dependencies["mascot"]
            < result.false_dependencies["phast"])
