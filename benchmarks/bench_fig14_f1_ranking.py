"""Fig. 14 — F1 scores of entries ranked within each table.

Paper observations: table 1's worst entries still rank like table 2's top
entries (grow it); tables 5-8's tails are cold (shrink them) — the analysis
behind MASCOT-OPT.
"""

from repro.analysis import suggest_table_sizes
from repro.experiments import fig14_f1_ranking
from repro.predictors.configs import MASCOT_DEFAULT

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig14_f1_ranking(benchmark):
    result = run_once(
        benchmark,
        lambda: fig14_f1_ranking(bench_suite(), bench_uops(),
                                 period_loads=5_000,
                                 execution=bench_execution()),
    )
    print()
    print(result.render())
    suggestion = suggest_table_sizes(result.profile,
                                     MASCOT_DEFAULT.table_entries)
    print(f"heuristic size suggestion: {suggestion}")
    print(f"paper's MASCOT-OPT sizes : [1024, 512, 512, 512, 256, 256, "
          f"256, 128]")
    # Early tables carry more useful entries than late ones.
    early = sum(result.profile.table_mean(t) for t in range(4))
    late = sum(result.profile.table_mean(t) for t in range(4, 8))
    assert early > late
