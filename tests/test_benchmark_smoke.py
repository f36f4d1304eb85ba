"""The benchmark still finds and runs every name it calls.

Runs ``python3 perfbench/run.py --workload all --smoke --seconds 1 --trace
T`` (every workload at reduced sizes, each in its own process) for T = 0 and
T = 1, and checks that it exits 0 and reports each workload correct. The
traced pass wraps package functions by name, so it also fails when a name it
wraps is gone. perfbench/test_perfbench.py checks the result lines in more
detail but lies outside this suite's test paths.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    WORKLOADS = [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_runs_correct(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "all", "--smoke", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in WORKLOADS:
        assert any(line.startswith(f"{name}: correct=True ")
                   for line in lines), proc.stdout
