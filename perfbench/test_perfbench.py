"""Smoke run of the benchmark harness at reduced input sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs in its own process, untraced and traced, and its result
line must carry exactly the metrics BENCHMARK.json names, with their units.
Takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_names_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("# env {") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_one_command_prints_every_workload():
    proc = run_bench("--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    table = proc.stdout.split("\n\n")[-1]
    for workload in WORKLOADS:
        assert f"{workload}: correct=True" in table
    for metric in SPEC["end_to_end"]:
        assert table.count(f"  {metric['name']} = ") == len(WORKLOADS)
    assert table.count("fail_ratio=0.0 1") == len(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--trace", "0",
                     cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_yardstick_scales_by_the_samples_near_a_step():
    sys.path.insert(0, HERE)
    import numpy as np
    import yardstick

    # a fast second (samples of ref) then a slow one (2 * ref)
    ref = 1e-3
    at = np.concatenate([np.linspace(0.0, 1.0, 50), np.linspace(2.0, 3.0, 50)])
    took = np.concatenate([np.full(50, ref), np.full(50, 2.0 * ref)])
    window = yardstick.Window(at, took, ref)
    assert window.scale(0.2, 0.3) == 1.0
    assert window.scale(2.5, 2.6) == 0.5
    # a step with no sample near it takes the nearest MIN_NEAR
    assert window.scale(10.0, 11.0) == 0.5
    assert window.scale() == pytest.approx(1 / 1.5)  # pass median 1.5 ref
