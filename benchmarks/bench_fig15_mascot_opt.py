"""Fig. 15 — the area-optimised MASCOT variants.

Paper: MASCOT-OPT loses 0.09% IPC at 11.8 KiB; reducing tags by 4 bits
loses 0.13% total at 10.1 KiB.
"""

import pytest

from repro.experiments import fig15_mascot_opt

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_fig15_mascot_opt(benchmark):
    result = run_once(
        benchmark, lambda: fig15_mascot_opt(bench_suite(), bench_uops(),
                                            execution=bench_execution())
    )
    print()
    print(result.render())
    ratio_opt, kib_opt = result.points["mascot-opt"]
    ratio_tag4, kib_tag4 = result.points["mascot-opt-tag4"]
    print(f"MASCOT-OPT    : {100 * (ratio_opt - 1):+.2f}% IPC at "
          f"{kib_opt:.2f} KiB (paper: -0.09% at 11.8 KiB)")
    print(f"MASCOT-OPT -4b: {100 * (ratio_tag4 - 1):+.2f}% IPC at "
          f"{kib_tag4:.2f} KiB (paper: -0.13% at 10.1 KiB)")
    assert kib_tag4 == pytest.approx(10.1, abs=0.1)
    # The compact variants stay within ~1% of full MASCOT.
    assert ratio_opt > 0.99
    assert ratio_tag4 > 0.98
