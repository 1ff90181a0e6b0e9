"""Smoke test of the benchmark harness.

``perfbench/run.py`` drives the library through its public API (solve,
sampling, the L1 march and the verification report) and checks the
results against its own gates.  One traced pass per workload keeps the
harness running against the code it measures.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload",
                         ["readme_check", "forced_modes", "single_order"])
def test_one_traced_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seconds", "0", "--seed", "11",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the result is the last line of the report
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
