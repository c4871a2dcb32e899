"""Fig. 10 — distribution of MASCOT prediction and misprediction types.

Paper: over 80% of predictions are no-dependence; SMB mispredictions are a
small share except for mcf.
"""

from repro.common.statistics import arithmetic_mean
from repro.experiments import fig10_prediction_mix

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig10_prediction_mix(benchmark):
    result = run_once(
        benchmark, lambda: fig10_prediction_mix(bench_suite(), bench_uops(),
                                      execution=bench_execution())
    )
    print()
    print(result.render())
    mean_nodep = arithmetic_mean(
        per["no_dep"] for per in result.prediction_mix.values()
    )
    print(f"mean no-dependence prediction share: {mean_nodep:.1f}% "
          "(paper: >80%)")
    assert mean_nodep > 50.0
