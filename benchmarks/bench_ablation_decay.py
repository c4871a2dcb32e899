"""Ablation — periodic usefulness decay (Sec. IV-C).

The paper: "We did not find any meaningful changes in performance from
periodically decrementing all usefulness counters", crediting the 4-way
sets and the try-again allocation's set-wide decrements.  This bench checks
that claim holds in the reproduction.
"""

from repro.experiments import run_ipc_suite

from conftest import bench_execution, bench_suite, bench_uops, run_once


def test_periodic_decay_changes_little(benchmark):
    def run():
        return run_ipc_suite(["mascot", "mascot-decay"],
                             bench_suite(), bench_uops(),
                             execution=bench_execution())

    suite = run_once(benchmark, run)
    base = suite.geomean("mascot")
    decayed = suite.geomean("mascot-decay")
    delta = 100 * (decayed / base - 1)
    print()
    print(f"mascot        : {100 * (base - 1):+.3f}% vs perfect MDP")
    print(f"mascot + decay: {100 * (decayed - 1):+.3f}% vs perfect MDP")
    print(f"delta: {delta:+.3f}% (paper: no meaningful change)")
    assert abs(delta) < 0.5
