"""Tier-1 smoke runs of the benchmark's sweep workloads, so that a broken
row, capture hook or render contract fails here rather than only in a
benchmark run.  The benchmark is run as it ships; nothing under
``perfbench/`` is changed."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sweep_chi", "sweep_bounds"])
def test_sweep_workload_output_checks_pass(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny",
         "--seed", "1", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary
    assert summary["attempted"] > 0
