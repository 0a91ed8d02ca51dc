"""Smoke test of the benchmark harness: short traced runs.

The tracer looks up every public function it wraps by name, so a rename
in the package shows up here as a failed run, not first in a benchmark.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_run_is_correct(workload):
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "  traced_outputs_identical: True" in lines


def test_fig_sweeps_traced_run_is_correct():
    _traced_run_is_correct("fig-sweeps")


def test_mixed_channel_traced_run_is_correct():
    # the density rows, the stacked box and the propriety paths
    _traced_run_is_correct("mixed-channel")


def test_deep_circuits_traced_run_is_correct():
    # the compiled circuit plans, discards and the 16-slot program
    _traced_run_is_correct("deep-circuits")
