"""Fig. 11 — MASCOT vs a TAGE-like predictor without non-dependence
allocation.

Paper: the ablation accumulates more than 12x the false dependencies and
loses most of the SMB gains (decayed entries lose bypass confidence).
"""

from repro.experiments import fig11_ablation

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig11_ablation(benchmark):
    result = run_once(
        benchmark, lambda: fig11_ablation(bench_suite(), bench_uops(),
                                          execution=bench_execution())
    )
    print()
    print(result.render())
    print(f"false-dependence ratio (ablation / MASCOT): "
          f"{result.false_dep_ratio:.1f}x (paper: >12x)")
    assert result.false_dep_ratio > 2.0
    assert result.ipc.geomean("mascot") >= result.ipc.geomean("tage-no-nd")
