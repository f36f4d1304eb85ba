"""tools/bench_pairs.py: its per-metric summary of interleaved pairs and
the record it keeps of each run."""

import importlib.metadata
import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "bench_pairs.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(base, change, name):
    return [{"base": {"metrics": {name: b}}, "change": {"metrics": {name: c}}}
            for b, c in zip(base, change)]


def test_quartiles_are_inclusive():
    tool = load_tool()
    assert tool.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert tool.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    tool = load_tool()
    base, change = [10.0, 10.0, 10.0, 10.0], [9.0, 8.0, 10.0, 11.0]
    lower = tool.summarise(_pairs(base, change, "solve_s"), {})["solve_s"]
    assert (lower["wins"], lower["losses"], lower["pairs"]) == (2, 1, 4)
    higher = tool.summarise(_pairs(base, change, "rate"),
                            {"rate": "higher"})["rate"]
    assert (higher["wins"], higher["losses"]) == (1, 2)


def test_iqr_test_compares_the_medians_with_the_base_spread():
    tool = load_tool()
    base = [10.0, 11.0, 12.0, 13.0, 14.0]  # IQR 2
    apart = tool.summarise(_pairs(base, [9.0] * 5, "x"), {})["x"]
    assert apart["medians_apart_by_more_than_base_iqr"]
    assert apart["relative_change"] == 9.0 / 12.0 - 1.0
    close = tool.summarise(_pairs(base, [10.5] * 5, "x"), {})["x"]
    assert not close["medians_apart_by_more_than_base_iqr"]


_REFUSED = """# env python=3.12
# CHECK FAILED: lowrank: fig2 final ranks differ between passes
# CHECK FAILED: final patterns or iteration counts differ between passes
# patterns_digest=ab12 solvers.iterations=345
{"correct": false, "attempted": 4, "failed": 0, "metrics": {"solve_s": {"value": 1.5, "unit": "s"}}}
"""


def test_a_refused_run_keeps_its_exit_code_and_check_notes():
    tool = load_tool()
    run = tool.parse_run(_REFUSED, 1)
    assert run["exit_code"] == 1 and not run["correct"]
    assert run["check_failed"] == [
        "lowrank: fig2 final ranks differ between passes",
        "final patterns or iteration counts differ between passes",
    ]
    assert run["metrics"] == {"solve_s": 1.5}
    assert (run["patterns_digest"], run["iterations"]) == ("ab12", 345)


def test_a_run_without_a_result_line_is_not_correct():
    tool = load_tool()
    run = tool.parse_run("Traceback (most recent call last):\n", 2)
    assert (run["exit_code"], run["correct"], run["check_failed"],
            run["metrics"], run["patterns_digest"]) == (2, False, [], {}, None)
    ok = tool.parse_run(_REFUSED.replace("false", "true")
                        .replace("# CHECK FAILED", "# note"), 0)
    assert ok["correct"] and ok["check_failed"] == []


def test_main_prints_and_stores_why_a_run_failed(tmp_path, capsys):
    tool = load_tool()
    good = _REFUSED.replace("false", "true").replace("# CHECK FAILED", "# x")
    tool.run_once = lambda root, workload, seed: (
        tool.parse_run(_REFUSED, 1) if root.endswith("change")
        else tool.parse_run(good, 0))
    out = tmp_path / "BENCH_test.json"
    status = tool.main([str(tmp_path / "base"), str(tmp_path / "change"),
                        "--workload", "lowrank", "--pairs", "1",
                        "--out", str(out)])
    printed = capsys.readouterr().out
    assert status == 1
    assert ("#   change exit code 1; check failed: lowrank: fig2 final ranks "
            "differ between passes; check failed: final patterns") in printed
    assert "base exit code" not in printed
    doc = json.loads(out.read_text())
    assert doc["env"]["numpy"] == importlib.metadata.version("numpy")
    assert "scipy" not in doc["env"]
    pair = doc["runs"]["lowrank-seed0"]["pairs"][0]
    assert pair["change"]["exit_code"] == 1
    assert len(pair["change"]["check_failed"]) == 2
