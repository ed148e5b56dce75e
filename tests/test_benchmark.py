"""The benchmark's traced pass runs clean on every workload.

The tracer in perfbench/spans.py rebinds the package's public names and
a few methods by name, and every case is checked against the digest of
its output, so a rename or an output change fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.mark.parametrize("workload", ["census", "weyl", "certificate"])
def test_traced_benchmark_pass_has_no_failures(workload):
    run = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", "1",
         "--mode", "traced", "--spawned-at", "0"],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(run.stdout)
    assert (result["failed"], result["failures"]) == (0, [])
