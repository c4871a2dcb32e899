"""Sec. VI-A analysis — issue-stage waits of load consumers.

Paper: "for instructions that depend on one load or more, the average
number of cycles spent in the issue stage waiting for dependencies"
drops from 38.7 to 15.7 cycles (-60%) for perlbench2 when bypassing is
enabled, but only -1.9% for lbm — perlbench is peculiarly sensitive to
load values arriving early.
"""

from repro.experiments import (default_cache, make_predictor, render_table,
                               run_timing)

from conftest import bench_uops, run_once


def test_consumer_wait_reduction(benchmark):
    def run():
        cache = default_cache()
        rows = {}
        for bench in ("perlbench2", "lbm"):
            trace = cache.get(bench, bench_uops())
            no_smb = run_timing(trace, make_predictor("mascot-mdp"))
            smb = run_timing(trace, make_predictor("mascot"))
            rows[bench] = (no_smb.mean_consumer_wait, smb.mean_consumer_wait)
        return rows

    rows = run_once(benchmark, run)
    table = []
    cuts = {}
    for bench, (before, after) in rows.items():
        cut = 100.0 * (1.0 - after / before) if before else 0.0
        cuts[bench] = cut
        table.append([bench, f"{before:.1f}", f"{after:.1f}", f"{cut:.1f}%"])
    print()
    print(render_table(
        ["benchmark", "wait w/o SMB", "wait w/ SMB", "reduction"],
        table,
        title="Sec. VI-A — issue-stage wait of load consumers "
              "(paper: perlbench2 -60%, lbm -1.9%)",
    ))
    # Shape: bypassing helps both, but perlbench2 far more than lbm.
    assert cuts["perlbench2"] > 0
    assert cuts["perlbench2"] > cuts["lbm"]
