"""Fig. 9 — MDP-only IPC: Store Sets / PHAST / MASCOT-MDP vs perfect MDP.

Paper: MDP-only MASCOT beats Store Sets by 6.2% and PHAST by 0.4%; on some
benchmarks (gcc4, gcc5, mcf, nab) real predictors beat the conservative
oracle.
"""

from repro.experiments import fig9_ipc_mdp_only

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig9_ipc_mdp_only(benchmark):
    result = run_once(
        benchmark, lambda: fig9_ipc_mdp_only(bench_suite(), bench_uops(),
                                   execution=bench_execution())
    )
    print()
    print(result.render())
    g = {p: result.geomean(p) for p in result.predictors}
    print(f"MASCOT-MDP vs Store Sets: "
          f"{100 * (g['mascot-mdp'] / g['store-sets'] - 1):+.2f}% "
          f"(paper: +6.2%)")
    print(f"MASCOT-MDP vs PHAST: "
          f"{100 * (g['mascot-mdp'] / g['phast'] - 1):+.2f}% "
          f"(paper: +0.4%)")
    assert g["mascot-mdp"] >= g["store-sets"] * 0.999
    assert g["mascot-mdp"] >= g["phast"] * 0.995
