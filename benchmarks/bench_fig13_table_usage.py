"""Fig. 13 — distribution of predictions made from each MASCOT table.

Paper shape: table 1 (PC-only) serves the largest tagged share, longer
tables progressively less, and the base predictor covers the cold misses.
"""

from repro.experiments import fig13_table_usage

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig13_table_usage(benchmark):
    result = run_once(
        benchmark, lambda: fig13_table_usage(bench_suite(), bench_uops(),
                                   execution=bench_execution())
    )
    print()
    print(result.render())
    tagged = result.shares[:-1]
    assert tagged[0] == max(tagged)  # table 1 dominates the tagged tables
    assert abs(sum(result.shares) - 100.0) < 1e-6
