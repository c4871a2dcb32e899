"""Ablation — the Store Sets footprint-scale substitution (DESIGN.md §2).

Documents how the calibrated SSIT-pressure emulation affects Store Sets:
with a literal 8K SSIT our few-hundred-instruction synthetic programs never
alias, which would hide the paper's Fig. 9 result entirely.  Each scale is
its own predictor spec, so each is its own cached cell.
"""

from repro.experiments import PREDICTORS, run_ipc_suite

from conftest import bench_execution, bench_suite, bench_uops, run_once

SCALES = (1, 64, 192)


def test_footprint_scale_sensitivity(benchmark):
    specs = {scale: PREDICTORS["store-sets"].with_(
                 name=f"store-sets/scale{scale}", footprint_scale=scale)
             for scale in SCALES}

    def run():
        suite = run_ipc_suite(list(specs.values()), bench_suite(),
                              bench_uops(), execution=bench_execution())
        return {scale: suite.geomean(spec.name)
                for scale, spec in specs.items()}

    results = run_once(benchmark, run)
    print()
    for scale, geomean in results.items():
        print(f"footprint_scale={scale:4d}: {100 * (geomean - 1):+.3f}% "
              "vs perfect MDP")
    print("Paper anchor: Store Sets ~6% behind MDP-only MASCOT (Fig. 9).")
    assert results[1] > results[192]  # pressure must cost performance
