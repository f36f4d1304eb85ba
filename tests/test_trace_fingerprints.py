"""tools/trace_fingerprints.py: its cases are well formed and repeatable,
at 1 BLAS thread it prints tests/trace_fingerprints.txt line for line, and
at 2 every line but replicate-fig3,fig3_comm.csv's."""

import difflib
import importlib.util
import os
import re
import subprocess
import sys

from proxident.registry import SOLVERS
from proxident.solvers import TraceLog

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "tools", "trace_fingerprints.py")


PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "trace_fingerprints.txt")


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_fingerprints", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_qc_case_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.qc_case(3)
    assert lines == tool.qc_case(3)
    assert all(re.fullmatch(r"qc-3,[a-z-]+,[0-9a-f]{64}", line)
               for line in lines)
    assert [line.split(",")[1] for line in lines] == list(SOLVERS)
    assert len({line.split(",")[2] for line in lines}) == len(SOLVERS)


def test_outcomes_line_is_well_formed_and_repeatable():
    tool = load_tool()
    outcomes, again = [], []
    lines = tool.qc_case(3, outcomes)
    assert lines == tool.qc_case(3, again) and outcomes == again
    assert [o.split(",")[:2] for o in outcomes] == [["qc-3", name]
                                                    for name in SOLVERS]
    assert all(re.fullmatch(r"qc-3,[a-z-]+,(converged|max_iter|diverged),"
                            r"[0-9]+,[0-9a-f]+", o) for o in outcomes)
    line = tool.outcomes_line(outcomes)
    assert re.fullmatch(r"qc-outcomes,all,[0-9a-f]{64}", line)
    assert line == tool.outcomes_line(again)
    assert line != tool.outcomes_line(outcomes[:-1])


def test_reports_line_is_well_formed_and_repeatable():
    tool = load_tool()
    reports, again = [], []
    lines = tool.qc_case(3, reports=reports)
    assert lines == tool.qc_case(3, reports=again) and reports == again
    assert [r.split(",")[:2] for r in reports] == [["qc-3", name]
                                                   for name in SOLVERS]
    assert all(re.fullmatch(
        r"qc-3,[a-z-]+,first_stable_iter=[0-9]+\noscillation_count=[0-9]+\n"
        r"monotone=[01]\npattern_hash=[0-9a-f]+\n", r) for r in reports)
    line = tool.reports_line(reports)
    assert re.fullmatch(r"qc-reports,all,[0-9a-f]{64}", line)
    assert line == tool.reports_line(again)
    assert line != tool.reports_line(reports[:-1])


def test_collection_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.collection_lines()
    assert lines == tool.collection_lines()
    assert len(lines) == len(tool.COLLECTIONS)
    assert all(re.fullmatch(
        r"collections,(coordinate_zeros|adjacent_pairs|rank_levels)"
        r"-[0-9x]+,[0-9a-f]{64}", line) for line in lines)
    assert len({line.split(",")[2] for line in lines}) == len(lines)


def test_kernel_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.kernel_lines()
    assert lines == tool.kernel_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"kernels-1d,{kind}-{n}" for n in tool.KERNEL_SIZES
        for kind in ("tv1d", "potts1d")]
    assert all(re.fullmatch(r"kernels-1d,(tv1d|potts1d)-[0-9]+,[0-9a-f]{64}",
                            line) for line in lines)
    assert len({line.split(",")[2] for line in lines}) == len(lines)


def test_lowrank_structure_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.lowrank_structure_lines()
    assert lines == tool.lowrank_structure_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"lowrank-structure,{kind}-{name}" for kind in ("nuclear", "rank")
        for name in SOLVERS]
    assert all(re.fullmatch(r"lowrank-structure,[a-z-]+,[0-9a-f]{64}", line)
               for line in lines)
    # the objective column is left out: the digest is not run_digest's
    full = {line.split(",")[2] for line in tool.solver_lines(
        "lowrank-structure", tool._lowrank_problems()[0][1],
        tool.KINDS_CONFIG, ["pg"])}
    assert lines[0].split(",")[2] not in full


def test_masked_lines_are_well_formed():
    tool = load_tool()
    lines = tool.masked_lines()
    cases = [f"{size}x{size}-{kind}" for size, _ in tool.MASKED_SHAPES
             for kind in ("nuclear", "rank")]
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"masked-{case},{name}" for case in cases for name in SOLVERS] + [
        f"masked-structure,{case}-{name}" for case in cases
        for name in SOLVERS]
    assert all(re.fullmatch(r"masked-[a-z0-9-]+,[a-z0-9-]+,[0-9a-f]{64}",
                            line) for line in lines)
    # the structure lines leave the objective column out of the same runs
    half = len(lines) // 2
    assert lines[0].split(",")[2] != lines[half].split(",")[2]
    for _, problem in tool._masked_problems():
        # a 0/1 mask with zeros: L = 1 and mu = 0
        smooth = problem.smooth
        assert (smooth.lipschitz, smooth.strong_convexity) == (1.0, 0.0)


def test_draw_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.draw_lines()
    assert lines == tool.draw_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        "draws-constant-2,dave-pg", "draws-geometric-0.5,dave-pg",
        "draws-3-components,saga"]
    assert all(re.fullmatch(r"draws-[a-z0-9.-]+,[a-z-]+,[0-9a-f]{64}", line)
               for line in lines)


def test_diverge_start_lines_hash_a_diverged_empty_run():
    tool = load_tool()
    lines = tool.diverge_start_lines()
    assert lines == tool.diverge_start_lines()
    assert [line.split(",")[:2] for line in lines] == [
        ["diverge-start", name] for name in SOLVERS]
    # every run ends on its first step, before any row is recorded
    empty = tool._sha(["diverged", 0, tool.trace_csv_text(TraceLog())])
    assert [line.split(",")[2] for line in lines] == [empty] * len(SOLVERS)


def test_diagonal_lines_are_well_formed_and_repeatable():
    import numpy as np

    tool = load_tool()
    lines = tool.diagonal_lines()
    assert lines == tool.diagonal_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"diagonal-{kind},{name}" for kind in ("l1", "tv1d", "potts1d")
        for name in SOLVERS]
    assert all(re.fullmatch(r"diagonal-[a-z0-9]+,[a-z-]+,[0-9a-f]{64}", line)
               for line in lines)
    for _, problem in tool._diagonal_problems():
        design = problem.smooth.A
        assert np.array_equal(design, np.diag(np.diagonal(design)))
        assert set(np.diagonal(design)) == {1.0, 0.3}
        assert problem.smooth.component_count == 4


def test_gen_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.gen_lines()
    assert lines == tool.gen_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"cli-gen,{kind}" for kind in ("lasso-1", "lasso-2", "qc-lasso-3",
                                       "qc-lasso-4", "lowrank-5", "lowrank-6")]
    assert all(re.fullmatch(r"cli-gen,[a-z-]+-[0-9],[0-9a-f]{64}", line)
               for line in lines)
    assert len({line.split(",")[2] for line in lines}) == len(lines)


def test_solve_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.solve_lines()
    assert lines == tool.solve_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"cli-solve,{run}" for run in ("dave-pg-1", "dave-pg-2",
                                       "predictor-corrector-3",
                                       "random-subspace-4", "pg-5")]
    assert all(re.fullmatch(r"cli-solve,[a-z-]+-[0-9],[0-9a-f]{64}", line)
               for line in lines)
    assert len({line.split(",")[2] for line in lines}) == len(lines)


def test_spectral_kernel_lines_are_well_formed_and_repeatable():
    tool = load_tool()
    lines = tool.spectral_kernel_lines()
    assert lines == tool.spectral_kernel_lines()
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"kernels-spectral,{kind}-{rows}x{cols}"
        for rows, cols in tool.SPECTRAL_SHAPES for kind in ("nuclear", "rank")]
    assert all(re.fullmatch(
        r"kernels-spectral,(nuclear|rank)-[0-9]+x[0-9]+,[0-9a-f]{64}", line)
        for line in lines)
    assert len({line.split(",")[2] for line in lines}) == len(lines)


def test_spectral_cases_put_thresholds_on_singular_values():
    import numpy as np

    tool = load_tool()
    for rows, cols in tool.SPECTRAL_SHAPES:
        cases = tool._spectral_cases(np.random.default_rng(0), rows, cols)
        assert not cases[2][0].any()  # the zero matrix
        for a, steps in cases:
            assert (1.0, 0.0) in steps
            s = np.linalg.svd(a, full_matrices=False)[1]
            ties = steps[4:]
            assert len(ties) == (0 if not s.any() else
                                 2 * len({s[0], s[s.size // 2]}))
            for gamma, lam in ties[0::2]:
                assert gamma * lam in s  # the soft threshold
            for gamma, lam in ties[1::2]:
                assert np.sqrt(2.0 * gamma * lam) in s  # the hard threshold


def test_flat_step_lines_are_the_printed_lines():
    tool = load_tool()
    lines = tool.flat_step_lines()
    seeds = len(tool.FLAT_QC_SEEDS)
    assert [line.rsplit(",", 1)[0] for line in lines] == [
        f"qc-{seed},predictor-corrector" for seed in tool.FLAT_QC_SEEDS] + [
        f"{kind},predictor-corrector" for kind in ("tv1d", "potts1d", "l0")]
    for seed, line in zip(tool.FLAT_QC_SEEDS, lines):
        assert line in tool.qc_case(seed)
    kinds = [line for case, problem in tool._vector_kind_problems()
             for line in tool.solver_lines(case, problem, tool.KINDS_CONFIG)]
    assert set(lines[seeds:]) <= set(kinds)


def _tool_lines(threads):
    """The tool's output at the given BLAS thread count, and the pinned
    file's lines."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    now = subprocess.run([sys.executable, TOOL], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    with open(PINNED) as fh:
        return now, fh.read().splitlines()


def test_output_equals_the_pinned_file():
    # every trace byte the tool hashes, against the committed output; its
    # first line names the stack that made it
    now, pinned = _tool_lines(1)
    diff = list(difflib.unified_diff(pinned[1:], now[1:], "pinned", "now",
                                     lineterm="", n=0))
    stack = ("" if now[0] == pinned[0] else
             f"\nthe file was made on {pinned[0][2:]}; this run is on "
             f"{now[0][2:]}")
    assert not diff, ("lines differ from tests/trace_fingerprints.txt:\n"
                      + "\n".join(diff) + stack)


def test_only_fig3_comm_depends_on_the_thread_count():
    # the determinism contract (see the README): at 2 BLAS threads every
    # line but fig3's, whose 200x100 Gram has other bytes, is the pinned one
    now, pinned = _tool_lines(2)
    assert len(now) == len(pinned)
    moved = [f"{a} -> {b.rsplit(',', 1)[-1]}" for a, b in zip(pinned, now)
             if a != b and not a.startswith("replicate-fig3,fig3_comm.csv,")]
    assert not moved, "lines differ at 2 threads:\n" + "\n".join(moved)
