"""Benchmark driver: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload fig7_batched [--seed 1] [--seconds 5]
    python3 bench/run.py --workload fig7_batched --trace 1
    python3 bench/run.py --record-golden --seed 3 [--scale smoke]

The driver is a closed loop with one client.  It starts the workload in
a fresh interpreter (``bench/workload.py``) ``SETUP_SPAWNS`` times: the
first ones only set up and exit, the last one also measures.  Set-up
time is the median time from spawning an interpreter to its ``ready``
line.  While the measured interpreter runs, the driver polls the peak
resident set (VmHWM) of it and all its descendants, so pool workers that
are killed at pool close still count.

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric that ``BENCHMARK.json`` lists; with
``--trace 1`` it holds every per-layer metric.  Lines above it repeat
the metrics for humans, plus the failure fraction and the sampled
fidelity metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workload import ROOT, SCALES, WORKLOADS

WORKLOAD_SCRIPT = Path(__file__).resolve().parent / "workload.py"

#: Interpreters started per run; set-up time is their median.
SETUP_SPAWNS = 7
#: Peak-RSS polling period in seconds.
RSS_POLL_S = 0.25
#: A workload interpreter still running after this long is killed.
CHILD_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass  # the process ended between listing and reading
    return 0


def tree_hwm_kb(root: int) -> int:
    """Largest VmHWM of ``root`` and all its descendants, in KiB."""
    children: Dict[int, List[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    peak, todo = 0, [root]
    while todo:
        pid = todo.pop()
        peak = max(peak, vm_hwm_kb(pid))
        todo.extend(children.get(pid, ()))
    return peak


def _pump(stream, lines: "queue.Queue[Optional[str]]") -> None:
    for line in stream:
        lines.put(line.rstrip("\n"))
    lines.put(None)


def run_child(args: Sequence[str]) -> Tuple[float, int, List[str]]:
    """Run one workload interpreter to completion.

    Returns ``(setup_s, peak_rss_kb, output_lines_after_ready)``.  The
    interpreter runs in its own session, so on a deadline or an error
    the whole process group, pool workers included, is killed and
    reaped before this returns.
    """
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, str(WORKLOAD_SCRIPT), *args],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()
    reader = threading.Thread(target=_pump, args=(child.stdout, lines))
    reader.start()
    setup_s: Optional[float] = None
    peak_kb = 0
    output: List[str] = []
    try:
        while True:
            peak_kb = max(peak_kb, tree_hwm_kb(child.pid))
            if time.perf_counter() - start > CHILD_DEADLINE_S:
                raise BenchError(f"workload exceeded {CHILD_DEADLINE_S}s")
            try:
                line = lines.get(timeout=RSS_POLL_S)
            except queue.Empty:
                continue
            if line is None:
                break
            if setup_s is None and line == "ready":
                setup_s = time.perf_counter() - start
            else:
                output.append(line)
        child.wait(timeout=CHILD_DEADLINE_S)
    finally:
        # The session holds the interpreter and any pool worker it left.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        reader.join()
        child.stdout.close()
    if child.returncode != 0 or setup_s is None:
        raise BenchError(f"workload interpreter exited with code "
                         f"{child.returncode}")
    return setup_s, peak_kb, output


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="default")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    child_args = ["--seed", str(args.seed), "--scale", args.scale]
    if args.record_golden:
        return subprocess.call([sys.executable, str(WORKLOAD_SCRIPT),
                                "--record-golden", *child_args], cwd=ROOT)
    if args.workload is None:
        parser.error("--workload is required")
    child_args += ["--workload", args.workload,
                   "--seconds", str(args.seconds)]
    if args.trace:
        child_args.append("--trace")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setups = [run_child([*child_args, "--setup-only"])[0]
                  for _ in range(SETUP_SPAWNS - 1)]
        setup_s, peak_kb, output = run_child(child_args)
        setups.append(setup_s)
        report = json.loads(output[-1]) if output else None
    except (BenchError, OSError, ValueError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if report is None:
        print("bench: workload printed no report", file=sys.stderr)
        return 2

    metrics = dict(report["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    attempted, failed = report["attempted"], report["failed"]
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_frac"] = "fraction"
    metrics["fail_frac"] = failed / attempted
    print(f"{args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(report['pass_walls'])} pass(es), {attempted} cells")
    for name in sorted(metrics):
        print(f"  {name:<30} {metrics[name]:>14.6g} {units.get(name, '')}")
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
