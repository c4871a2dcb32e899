"""Ablation — offset-capable bypassing (Sec. IV-E extension).

The paper argues same-address bypassing covers "the vast majority" of
opportunities and that a shifting field could add OFFSET-class bypasses.
This bench measures what that extension buys: MASCOT with offset bypassing
vs default, on the benchmarks with the largest Offset shares.
"""

from repro.experiments import run_ipc_suite

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_offset_bypass_extension(benchmark):
    def run():
        return run_ipc_suite(["mascot", "mascot-offset"],
                             bench_suite(), bench_uops(),
                             execution=bench_execution())

    suite = run_once(benchmark, run)
    base = suite.geomean("mascot")
    extended = suite.geomean("mascot-offset")
    print()
    print(f"mascot          : {100 * (base - 1):+.3f}% vs perfect MDP")
    print(f"mascot + offset : {100 * (extended - 1):+.3f}% vs perfect MDP")
    print("Paper expectation: a small additional gain — Fig. 2 shows the "
          "Offset class is a minor share of opportunities.")
    # The extension must not hurt, and cannot exceed a modest delta.
    assert extended >= base - 0.002
