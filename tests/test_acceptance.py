"""Acceptance gate: one test per criterion, printing one PASS line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria complete. Heavy artifacts (the 100 certified-lasso runs) are shared
through module-scoped fixtures; the determinism criterion re-executes the
relevant pipelines and compares emitted bytes.
"""

import time

import numpy as np
import pytest

from oracles import (
    estimate_projection_diagonal,
    potts1d_bruteforce,
    prox_optimality_residual,
    tv1d_bruteforce,
)
from proxident.asynchronous import DelayModel
from proxident.exploit import SubspaceSamplerConfig
from proxident.identification import analyze_trace, enlarged_bound_l1
from proxident.manifolds import pattern_leq, pattern_of
from proxident.problems import gen_lasso, gen_qc_lasso
from proxident.prox import (
    Regularizer,
    prox_l1,
    prox_nuclear,
    prox_potts1d,
    prox_tv1d,
)
from proxident.registry import run_solver
from proxident.replicate import replicate_fig1, replicate_fig2, replicate_fig3
from proxident.solvers import SolverConfig, run_apg, run_pg, trace_csv_text

SEED = 0
ALL_SOLVERS = (
    "pg", "apg", "dr", "saga", "dave-pg",
    "pg-adaptive", "predictor-corrector", "random-subspace",
)
QC_INSTANCES = 100
QC_SHAPE = dict(n=20, s=5, delta=0.5)


def note(criterion, text):
    print(f"\n[criterion {criterion:>2}] PASS: {text}")


def qc_problem(seed):
    return gen_qc_lasso(seed=seed, **QC_SHAPE)


def run_registered(name, problem, seed, trace_every=1, keep_u=False):
    tol = 1e-9 if name in ("saga", "dave-pg", "random-subspace") else 1e-10
    config = SolverConfig(stop_tol=tol, max_iter=500_000, seed=seed,
                          trace_every=trace_every, keep_u=keep_u)
    kwargs = {}
    if name == "dave-pg":
        kwargs["delay_model"] = DelayModel.uniform(0.0, 3.0)
    if name == "random-subspace":
        kwargs["sampler"] = SubspaceSamplerConfig(seed=seed)
    return run_solver(name, problem, config, **kwargs)


def qc_pipeline():
    """Criterion 4/5/11 workhorse: all solvers on all certified instances."""
    out = []
    for seed in range(QC_INSTANCES):
        problem = qc_problem(seed)
        star = pattern_of(problem.xstar, problem.reg.collection)
        runs = {}
        for name in ALL_SOLVERS:
            keep_u = name in ("pg", "apg")
            point, trace = run_registered(name, problem, seed, keep_u=keep_u)
            runs[name] = {
                "pattern": point.pattern,
                "report": analyze_trace(trace),
                "patterns": [r.pattern for r in trace],
                "csv": trace_csv_text(trace),
                "u_list": [r.u for r in trace] if keep_u else None,
            }
        out.append({"problem": problem, "star": star, "runs": runs})
    return out


@pytest.fixture(scope="module")
def qc_runs():
    return qc_pipeline()


@pytest.fixture(scope="module")
def fig2_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    return replicate_fig2(seed=SEED, outdir=out, instances=50), out


@pytest.fixture(scope="module")
def fig3_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    return replicate_fig3(seed=SEED, outdir=out), out


def test_criterion_01_prox_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        lam = rng.uniform(0.3, 2.0)
        gamma = rng.uniform(0.3, 2.0)
        u = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        for reg in (Regularizer.l1(n, lam), Regularizer.tv1d(n, lam)):
            x = reg.prox(u, gamma).point
            worst = max(worst, prox_optimality_residual(reg, u, gamma, x))
    for _ in range(1000):
        r, c = int(rng.integers(2, 20)), int(rng.integers(2, 16))
        reg = Regularizer.nuclear(r, c, rng.uniform(0.3, 2.0))
        u = rng.standard_normal((r, c))
        gamma = rng.uniform(0.3, 2.0)
        x = reg.prox(u, gamma).point
        worst = max(worst, prox_optimality_residual(reg, u, gamma, x))
    assert worst <= 1e-10

    worst_exact = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 9)) if trial < 97 else 12
        u = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        if trial % 4 == 0:
            u = np.round(u)
        step = rng.uniform(0.05, 1.5)
        err = np.max(np.abs(prox_tv1d(u, step).point - tv1d_bruteforce(u, step)))
        worst_exact = max(worst_exact, err)
    for trial in range(100):
        n = int(rng.integers(2, 13))
        u = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        step = rng.uniform(0.05, 1.5)
        err = np.max(np.abs(
            prox_potts1d(u, step).point - potts1d_bruteforce(u, step)
        ))
        worst_exact = max(worst_exact, err)
    assert worst_exact <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 60
    note(1, f"residual<=1e-10 (worst {worst:.1e}), brute-force match "
            f"(worst {worst_exact:.1e}), {elapsed:.1f}s")


def test_criterion_02_nonexpansiveness():
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    checks = {
        "l1": lambda u, g, l: prox_l1(u, g, l).point,
        "tv1d": lambda u, g, l: prox_tv1d(u, g, l).point,
    }
    for kind, fn in checks.items():
        n = 8
        for _ in range(10_000):
            u = rng.standard_normal(n) * 2
            v = rng.standard_normal(n) * 2
            g, l = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
            lhs = np.linalg.norm(fn(u, g, l) - fn(v, g, l))
            assert lhs <= np.linalg.norm(u - v) + 1e-12, kind
    for _ in range(10_000):
        u = rng.standard_normal((6, 5))
        v = rng.standard_normal((6, 5))
        g, l = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        lhs = np.linalg.norm(prox_nuclear(u, g, l).point - prox_nuclear(v, g, l).point)
        assert lhs <= np.linalg.norm(u - v) + 1e-12
    elapsed = time.monotonic() - start
    note(2, f"10^4 pairs per convex kind, {elapsed:.1f}s")


def test_criterion_03_cross_solver_agreement():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        problem = gen_lasso(50, 20, seed=seed)
        reference, _ = run_pg(problem, SolverConfig(stop_tol=1e-13,
                                                    max_iter=500_000))
        tol = 1e-6 * (1 + np.linalg.norm(reference.point))
        points = []
        for name in ALL_SOLVERS:
            if name == "dave-pg":
                config = SolverConfig(stop_tol=1e-11, max_iter=500_000,
                                      seed=seed)
                point, _ = run_solver(name, problem, config,
                                      delay_model=DelayModel.constant(0.0))
            else:
                config = SolverConfig(stop_tol=1e-11, max_iter=500_000,
                                      seed=seed)
                kwargs = ({"sampler": SubspaceSamplerConfig(seed=seed)}
                          if name == "random-subspace" else {})
                point, _ = run_solver(name, problem, config, **kwargs)
            points.append(point.point)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                d = float(np.linalg.norm(points[i] - points[j]))
                worst = max(worst, d / tol)
                assert d <= tol
    elapsed = time.monotonic() - start
    assert elapsed < 120
    note(3, f"8 solvers x 20 instances, worst pairwise distance "
            f"{worst:.2f}x tolerance, {elapsed:.1f}s")


def test_criterion_04_exact_identification(qc_runs):
    failures = 0
    for item in qc_runs:
        for name, run in item["runs"].items():
            if not run["pattern"] == item["star"]:
                failures += 1
            report = run["report"]
            stable = run["patterns"][report.first_stable_iter:]
            if not all(p == report.pattern_final for p in stable):
                failures += 1
    assert failures == 0
    note(4, f"{QC_INSTANCES} instances x {len(ALL_SOLVERS)} solvers, "
            f"all final patterns equal the certified support")


def test_criterion_05_enlarged_identification_sandwich(qc_runs):
    checked = 0
    for item in qc_runs:
        problem = item["problem"]
        step = problem.cert_gamma * problem.reg.lam
        for name in ("pg", "apg"):
            run = item["runs"][name]
            report = run["report"]
            for idx, (pattern, u) in enumerate(zip(run["patterns"],
                                                   run["u_list"])):
                eps = float(np.linalg.norm(u - problem.ustar))
                assert pattern_leq(pattern,
                                   enlarged_bound_l1(problem.ustar, step, eps))
                if idx >= report.first_stable_iter:
                    assert pattern_leq(item["star"], pattern)
                checked += 1
    note(5, f"sandwich verified on {checked} traced iterates")


def test_criterion_06_rank_identification_groups(fig2_result):
    start = time.monotonic()
    result, _ = fig2_result
    well = np.array(result["finals"]["well-posed"])
    degen = np.array(result["finals"]["degenerate"])
    frac_exact = float(np.mean(well == 4))
    assert frac_exact >= 0.9
    assert degen.mean() >= well.mean()
    elapsed = time.monotonic() - start
    assert elapsed < 300
    note(6, f"well-posed exact-rank fraction {frac_exact:.2f}, group means "
            f"{well.mean():.2f} vs {degen.mean():.2f}")


def test_criterion_07_communication_compression(fig3_result):
    result, _ = fig3_result
    dense = result["comm_at_gap"]["dense"]
    sparse = result["comm_at_gap"]["sparse"]
    assert dense is not None and sparse is not None
    ratio = sparse / dense
    assert ratio <= 0.60
    note(7, f"sparse/dense coordinates at gap 1e-6: {sparse}/{dense} = "
            f"{ratio:.3f} (final support {result['final_support']}/100)")


def test_criterion_08_lasso_stability():
    result = replicate_fig1(seed=SEED)
    assert result["shared_axis"]
    assert result["ls_separated"]
    note(8, f"perturbed solutions share the axis; unregularized solutions "
            f"moved {100 * result['ls_relative_change']:.1f}% "
            f"(perturbation 1%)")


def test_criterion_09_apg_speedup():
    wins = 0
    pairs = []
    for seed in range(10):
        base = gen_lasso(200, 100, seed=seed, noise=0.3)
        problem = gen_lasso(200, 100, seed=seed, noise=0.3,
                            lam=0.1 * base.reg.lam)
        reference, _ = run_pg(problem, SolverConfig(stop_tol=1e-13,
                                                    max_iter=300_000))
        f_star = problem.objective(reference.point)

        def first_k(runner):
            _, log = runner(problem, SolverConfig(stop_tol=0.0,
                                                  max_iter=20_000))
            return next(
                (r.k for r in log if r.objective - f_star <= 1e-6), None
            )

        k_pg, k_apg = first_k(run_pg), first_k(run_apg)
        assert k_pg is not None and k_apg is not None
        pairs.append((k_pg, k_apg))
        wins += int(k_apg < k_pg)
    assert wins >= 9
    note(9, f"APG strictly faster on {wins}/10 instances {pairs}")


def test_criterion_10_debiasing():
    worst = 0.0
    for p_b in (0.25, 0.5, 0.75):
        diag = estimate_projection_diagonal(
            10, [0, 3, 7], p_b, 10 ** 5, seed=int(100 * p_b)
        )
        expected = np.ones(10)
        expected[[0, 3, 7]] = 1.0 - p_b
        worst = max(worst, float(np.max(np.abs(diag - expected))))
    assert worst <= 1e-2
    note(10, f"mean-projection Monte Carlo error {worst:.1e} over "
             f"p in {{0.25, 0.5, 0.75}}")


def test_criterion_11_determinism(qc_runs, fig2_result, fig3_result, tmp_path):
    # criterion 4 pipeline: full re-run must reproduce every trace CSV
    rerun = qc_pipeline()
    for first, second in zip(qc_runs, rerun):
        for name in ALL_SOLVERS:
            assert first["runs"][name]["csv"] == second["runs"][name]["csv"]
    # criteria 6 and 7: replicated output files must be byte-identical
    _, fig2_dir = fig2_result
    fig2_again = tmp_path / "fig2"
    replicate_fig2(seed=SEED, outdir=fig2_again, instances=50)
    for name in ("fig2_trajectories.csv", "fig2_summary.csv",
                 "fig2_group_means.csv"):
        assert (fig2_dir / name).read_bytes() == (fig2_again / name).read_bytes()
    _, fig3_dir = fig3_result
    fig3_again = tmp_path / "fig3"
    replicate_fig3(seed=SEED, outdir=fig3_again)
    assert (fig3_dir / "fig3_comm.csv").read_bytes() == (
        fig3_again / "fig3_comm.csv"
    ).read_bytes()
    note(11, "criterion 4/6/7 pipelines re-run byte-identically")
