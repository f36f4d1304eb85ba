"""tools/kernel_replay.py: it records segment-1d's 1-D prox calls, replays
them with byte checks, and reports a replay that differs."""

import importlib.util
import os
import re
import subprocess
import sys

import numpy as np

from proxident.prox import prox_potts1d

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "kernel_replay.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("kernel_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_prints_each_kind_and_passes():
    proc = subprocess.run(
        [sys.executable, TOOL, "--smoke", "--replays", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "REPLAY DIFFERS" not in proc.stdout
    for kind, label in (("tv1d", "scans"), ("potts1d", "dps")):
        match = re.search(rf"^{kind}: calls (\d+), min [\d.]+ us/call, "
                          rf"{label} (\d+)$", proc.stdout, re.M)
        assert match, proc.stdout
        calls, full = map(int, match.groups())
        # pg keeps most breakpoints from one call to the next
        assert 0 < full < calls


def test_replay_reports_a_different_output():
    tool = load_tool()
    rng = np.random.default_rng(3)
    calls = []
    for _ in range(3):
        u = rng.standard_normal(20)
        res = prox_potts1d(u, 0.5, 2.0)
        calls.append(("potts1d", u, 0.5, 2.0, res.point.tobytes(),
                      res.pattern.bits.tobytes(), res.value))
    _, dps, differs = tool.replay(calls, "potts1d")
    assert (dps, differs) == (3, [])
    calls[1] = calls[1][:4] + ((-prox_potts1d(calls[1][1], 0.5).point)
                               .tobytes(),) + calls[1][5:]
    assert tool.replay(calls, "potts1d")[2] == [1]
