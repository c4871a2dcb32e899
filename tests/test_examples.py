"""Smoke tests: the worked examples still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(repro.__file__).resolve().parents[1]


def run_example(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / name), *args],
        env=env, capture_output=True, text=True, timeout=300)


class TestSimpointWorkflow:
    def test_runs_on_a_small_trace(self):
        done = run_example("simpoint_workflow.py", "xz", "40000")
        assert done.returncode == 0, done.stderr
        assert "full simulation      : IPC" in done.stdout
        assert "sampled estimate     : IPC" in done.stdout
        assert "region" in done.stdout
