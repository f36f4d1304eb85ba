"""tools/bench_pairs.py: its per-metric summary of interleaved pairs."""

import importlib.util
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
