#!/usr/bin/env python3
"""Timeline debugging — watching a bypass happen cycle by cycle.

Runs the same trace twice — MDP-only and MDP+SMB — with per-uop timeline
capture, finds a load whose value was delivered through speculative memory
bypassing, and renders the pipeline diagrams around it so the mechanism is
visible: with SMB the load's consumers issue before the load itself has
finished verifying.

Run:  python examples/timeline_debug.py [benchmark] [num_uops]
"""

import sys

from repro import MASCOT_DEFAULT, Mascot, generate_trace
from repro.core import BatchedPipeline


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "perlbench2"
    num_uops = int(sys.argv[2]) if len(sys.argv) > 2 else 30_000

    print(f"Simulating {benchmark} twice ({num_uops:,} uops) ...")
    trace = generate_trace(benchmark, num_uops)

    smb_pipeline = BatchedPipeline(Mascot(), record_timeline=True)
    smb_stats = smb_pipeline.run(trace)
    mdp_pipeline = BatchedPipeline(
        Mascot(MASCOT_DEFAULT.with_(name="mdp", smb_enabled=False)),
        record_timeline=True,
    )
    mdp_stats = mdp_pipeline.run(trace)

    smb_timeline = smb_pipeline.timeline(trace)
    mdp_timeline = mdp_pipeline.timeline(trace)

    # Find a dependent load late in the trace whose consumers clearly
    # benefited: compare each run's value-ready time relative to that
    # run's own fetch of the load (absolute cycle counts drift apart).
    best_seq, best_gain = None, 0
    for uop in trace[num_uops // 2:]:
        if not (uop.is_load and uop.has_dependence
                and uop.bypass.is_bypassable):
            continue
        mdp_wait = (mdp_pipeline._value_ready[uop.seq]
                    - mdp_timeline[uop.seq].fetch)
        smb_wait = (smb_pipeline._value_ready[uop.seq]
                    - smb_timeline[uop.seq].fetch)
        gain = mdp_wait - smb_wait
        if gain > best_gain:
            best_seq, best_gain = uop.seq, gain
    if best_seq is None:
        raise SystemExit("no bypassed load found — try a longer trace")

    window = (max(best_seq - 4, 0), min(best_seq + 6, len(trace)))
    print(f"\nLoad #{best_seq}: value available {best_gain} cycles earlier "
          "with SMB.\n")
    print("--- MDP only (load waits for the store's address, forwards):")
    print(mdp_timeline.render(*window))
    print("--- MDP + SMB (consumers get the store's data directly):")
    print(smb_timeline.render(*window))
    print(f"whole-trace IPC: {mdp_stats.ipc:.3f} (MDP) vs "
          f"{smb_stats.ipc:.3f} (MDP+SMB), "
          f"{smb_stats.loads_bypassed:,} loads bypassed")
    print(f"mean fetch-to-commit latency: "
          f"{mdp_timeline.mean_latency():.1f} vs "
          f"{smb_timeline.mean_latency():.1f} cycles")


if __name__ == "__main__":
    main()
