"""Fig. 12 — MASCOT and the perfect MDP+SMB ceiling on larger cores.

Paper: the SMB ceiling over perfect MDP rises from 2.1% (Golden Cove) to
2.8% (Lion Cove); MASCOT's gain rises from 1.0% to 1.3%.
"""

from repro.experiments import fig12_future_architectures

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig12_future_architectures(benchmark):
    result = run_once(
        benchmark,
        lambda: fig12_future_architectures(bench_suite(), bench_uops(),
                                           execution=bench_execution()),
    )
    print()
    print(result.render())
    golden = result.geomeans["golden-cove"]
    lion = result.geomeans["lion-cove"]
    # The ceiling exists on both cores and MASCOT captures part of it.
    assert golden["perfect-mdp-smb"] > 1.0
    assert lion["perfect-mdp-smb"] > 1.0
    assert golden["mascot"] <= golden["perfect-mdp-smb"] + 1e-9
    assert lion["mascot"] <= lion["perfect-mdp-smb"] + 1e-9
