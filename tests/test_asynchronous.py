import numpy as np
import pytest

from oracles import CallableSmooth

from proxident.asynchronous import DelayModel, run_dave_pg
from proxident.problems import (
    CompositeProblem,
    gen_lasso,
    gen_qc_lasso,
    least_squares_oracle,
)
from proxident.prox import Regularizer
from proxident.solvers import SolverConfig, run_pg, trace_to_csv


class TestDelayModel:
    def test_parse(self):
        assert DelayModel.parse("constant:2").kind == "constant"
        m = DelayModel.parse("uniform:0:3")
        assert (m.a, m.b) == (0.0, 3.0)
        assert DelayModel.parse("geometric:0.5").a == 0.5

    def test_parse_rejects_garbage(self):
        for text in ("gaussian:1", "uniform:3:0", "constant:-1", "uniform:1",
                     "geometric:0", "geometric:2"):
            with pytest.raises(ValueError):
                DelayModel.parse(text)

    def test_unbounded_parameters_rejected(self):
        with pytest.raises(ValueError):
            DelayModel.uniform(0, np.inf)
        with pytest.raises(ValueError):
            DelayModel.constant(np.inf)

    @pytest.mark.parametrize("args,message", [
        (("bogus", 0.5), "delay kind must be constant, uniform or geometric, "
                         "got 'bogus'"),
        (("constant", -1.0), "constant delay must be finite and >= 0"),
        (("constant", np.nan), "constant delay must be finite and >= 0"),
        (("uniform", 3.0, 1.0), "uniform delay needs finite 0 <= low <= high"),
        (("uniform", -1.0, 1.0), "uniform delay needs finite 0 <= low <= high"),
        (("geometric", 0.0), r"geometric delay needs q in \(0, 1\]"),
        (("geometric", 1.5), r"geometric delay needs q in \(0, 1\]"),
        (("constant", 1.0, 2.0), "constant delay takes one parameter, got "
                                 "b=2.0"),
        (("geometric", 0.5, 1.0), "geometric delay takes one parameter"),
        (("constant", "1"), "a must be a real number, got '1'"),
        (("constant", True), "a must be a real number, got True"),
        (("geometric", None), "a must be a real number, got None"),
        (("uniform", 0.0, "2"), "b must be a real number, got '2'"),
        (("uniform", 0.0, False), "b must be a real number, got False"),
    ])
    def test_constructor_checks_kind_and_parameters(self, args, message):
        with pytest.raises(ValueError, match=message):
            DelayModel(*args)

    @pytest.mark.parametrize("build,args,message", [
        (DelayModel.constant, (True,), "a must be a real number, got True"),
        (DelayModel.uniform, (False, "2"), "a must be a real number, got False"),
        (DelayModel.geometric, ("0.5",), "a must be a real number, got '0.5'"),
    ])
    def test_named_constructors_do_not_coerce(self, build, args, message):
        # a bool or a string reaches the field check as it was given
        with pytest.raises(ValueError, match=message):
            build(*args)

    def test_sampling_ranges(self):
        rng = np.random.default_rng(0)
        u = DelayModel.uniform(1, 2)
        assert all(1 <= u.sample(rng) <= 2 for _ in range(100))
        g = DelayModel.geometric(0.5)
        draws = [g.sample(rng) for _ in range(200)]
        assert min(draws) >= 0 and all(d == int(d) for d in draws)
        assert DelayModel.constant(3).sample(rng) == 3.0

    @pytest.mark.parametrize("model", [
        DelayModel.constant(2.0), DelayModel.uniform(0.0, 3.0),
        DelayModel.geometric(0.05), DelayModel.geometric(0.3),
        DelayModel.geometric(0.5), DelayModel.geometric(0.9),
        DelayModel.geometric(1.0)])
    @pytest.mark.parametrize("seed", range(5))
    def test_samples_are_the_stream_of_sample(self, model, seed):
        # blocks of 256, as run_dave_pg draws them: the same values, in the
        # same order, as one sample() per task, and the generator ends in
        # the same state
        one, block = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [model.sample(one) for _ in range(1024)]
        drawn = []
        for _ in range(4):
            drawn += model.samples(block, 256)
        assert drawn == expected
        assert all(type(d) is float for d in drawn)
        assert block.bit_generator.state == one.bit_generator.state


class TestZeroDelayReduction:
    def test_matches_pg_trajectory(self):
        p = gen_qc_lasso(n=15, s=4, delta=0.5, seed=1)
        gamma = 2.0 / (p.smooth.strong_convexity + p.smooth.lipschitz)
        cfg = SolverConfig(gamma=gamma, stop_tol=0.0, max_iter=60, keep_u=True)
        _, log_pg = run_pg(p, cfg)
        _, log_async = run_dave_pg(p, cfg)
        for a, b in zip(log_pg, log_async):
            # gradients are accumulated in a different order, so only float
            # roundoff separates the trajectories
            assert np.allclose(a.u, b.u, atol=1e-10)
            assert a.pattern == b.pattern


class TestConvergence:
    @pytest.mark.parametrize("delays", [
        DelayModel.constant(2.0),
        DelayModel.uniform(0.0, 3.0),
        DelayModel.geometric(0.4),
    ])
    def test_identifies_and_converges(self, delays):
        p = gen_qc_lasso(n=15, s=4, delta=0.5, seed=2)
        pt, log = run_dave_pg(p, SolverConfig(stop_tol=1e-11,
                                              max_iter=200_000),
                              delay_model=delays)
        assert log.converged
        assert np.linalg.norm(pt.point - p.xstar) <= 1e-7
        assert pt.pattern == p.reg.prox(p.ustar, p.cert_gamma).pattern

    def test_requires_strong_convexity(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 12))  # wide => mu = 0
        p = CompositeProblem(least_squares_oracle(A, rng.standard_normal(6),
                                                  components=3),
                             Regularizer.l1(12, 1.0))
        with pytest.raises(ValueError):
            run_dave_pg(p)

    def test_requires_components(self):
        p = CompositeProblem(
            least_squares_oracle(np.eye(3), np.ones(3)),
            Regularizer.l1(3, 1.0),
        )
        with pytest.raises(ValueError):
            run_dave_pg(p)

    def test_gamma_range(self):
        p = gen_qc_lasso(n=10, s=2, delta=0.5, seed=5)
        top = 2.0 / (p.smooth.strong_convexity + p.smooth.lipschitz)
        with pytest.raises(ValueError):
            run_dave_pg(p, SolverConfig(gamma=1.5 * top))


class TestCommunicationAccounting:
    def test_dense_counts_full_vectors(self):
        p = gen_qc_lasso(n=12, s=3, delta=0.5, seed=6)
        cfg = SolverConfig(stop_tol=0.0, max_iter=40, seed=0)
        _, log = run_dave_pg(p, cfg, delay_model=DelayModel.uniform(0, 2),
                             encoding="dense")
        m = len(p.smooth.components)
        # initial broadcast of the zero point costs m*n, then n per message
        expected = m * 12
        for r in log:
            expected += 12  # one message per arrival (no ties here)
            assert r.comm_coords == expected

    def test_sparse_counts_nonzeros_and_is_cheaper(self):
        p = gen_qc_lasso(n=12, s=3, delta=0.5, seed=6)
        cfg = SolverConfig(stop_tol=1e-10, max_iter=100_000, seed=0)
        _, dense = run_dave_pg(p, cfg, delay_model=DelayModel.uniform(0, 2),
                               encoding="dense")
        _, sparse = run_dave_pg(p, cfg, delay_model=DelayModel.uniform(0, 2),
                                encoding="sparse")
        # same trajectory, different accounting
        assert [r.objective for r in dense] == [r.objective for r in sparse]
        assert sparse[-1].comm_coords < dense[-1].comm_coords

    def test_encoding_validated(self):
        p = gen_qc_lasso(n=10, s=2, delta=0.5, seed=7)
        with pytest.raises(ValueError):
            run_dave_pg(p, encoding="huffman")


class TestFixedPointResidual:
    def test_residual_small_at_termination(self):
        from proxident.solvers import fixed_point_residual

        p = gen_qc_lasso(n=15, s=4, delta=0.5, seed=10)
        cfg = SolverConfig(stop_tol=1e-9, max_iter=300_000)
        pt, log = run_dave_pg(p, cfg, delay_model=DelayModel.uniform(0, 3))
        assert log.converged
        assert fixed_point_residual(p, pt.point, log.gamma) <= 10 * cfg.stop_tol


class TestDeterminism:
    def test_event_order_reproducible(self, tmp_path):
        p = gen_lasso(40, 16, seed=8)
        cfg = SolverConfig(stop_tol=1e-10, seed=13)
        _, log1 = run_dave_pg(p, cfg, delay_model=DelayModel.uniform(0, 3))
        _, log2 = run_dave_pg(p, cfg, delay_model=DelayModel.uniform(0, 3))
        t1 = trace_to_csv(log1, tmp_path / "a.csv")
        t2 = trace_to_csv(log2, tmp_path / "b.csv")
        assert t1 == t2

    def test_simulated_clock_in_trace(self):
        p = gen_qc_lasso(n=10, s=2, delta=0.5, seed=9)
        _, log = run_dave_pg(p, SolverConfig(stop_tol=0.0, max_iter=30),
                             delay_model=DelayModel.uniform(0, 1))
        clocks = [r.wallclock for r in log]
        assert clocks == sorted(clocks)
        assert clocks[0] >= 1.0


class TestDivergence:
    def test_default_step_divergence_ends_with_status(self):
        # the default step 2/(mu+L) uses the aggregate L (99.6 here) while
        # the largest component L is 620: with uniform delays this instance
        # diverges; the run must stop with a status, not raise from the prox
        p = gen_qc_lasso(n=20, s=5, delta=0.5, seed=7008)
        cfg = SolverConfig(stop_tol=1e-9, max_iter=500_000, seed=7008)
        with np.errstate(over="ignore", invalid="ignore"):
            point, log = run_dave_pg(p, cfg,
                                     delay_model=DelayModel.uniform(0, 3))
        assert log.status == "diverged" and not log.converged
        assert len(log) == log.iterations > 0
        assert np.isfinite(point.point).all()

    @pytest.mark.parametrize("delay", [DelayModel.constant(1e308),
                                       DelayModel.uniform(1e307, 1e308)])
    def test_clock_overflow_ends_diverged(self, delay):
        # each delay is finite, but the event times overflow to inf within a
        # few rounds; the run ends there, every recorded time finite
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=3)
        point, log = run_dave_pg(p, SolverConfig(max_iter=500),
                                 delay_model=delay)
        assert log.status == "diverged"
        assert 0 < len(log) == log.iterations < 500
        assert all(np.isfinite(r.wallclock) for r in log)
        assert log[-1].pattern == point.pattern
        assert np.isfinite(point.point).all()

    def test_constant_overflow_keeps_the_lockstep_round(self):
        # the ten workers finish together at 1e308 and would next meet at inf
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=3)
        _, log = run_dave_pg(p, SolverConfig(max_iter=50),
                             delay_model=DelayModel.constant(1e308))
        assert [r.wallclock for r in log] == [1e308]


class TestMatrixIterate:
    def test_matrix_components(self):
        # f(X) = (1/m) sum_j 0.5*||X - T_j||^2 = 0.5*||X - mean(T)||^2 + c,
        # so the minimiser of f + lam*||X||_* is the prox of mean(T)
        rng = np.random.default_rng(3)
        targets = [rng.standard_normal((4, 3)) for _ in range(3)]

        def piece(t):
            return CallableSmooth(lambda x: 0.5 * np.sum((x - t) ** 2),
                                  lambda x: x - t, 1.0, 1.0)

        mean = np.mean(targets, axis=0)
        f = CallableSmooth(lambda x: 0.5 * np.sum((x - mean) ** 2),
                           lambda x: x - mean, 1.0, 1.0,
                           components=[piece(t) for t in targets])
        reg = Regularizer.nuclear(4, 3, lam=0.5)
        point, log = run_dave_pg(CompositeProblem(f, reg),
                                 SolverConfig(stop_tol=1e-12, max_iter=200))
        assert log.status == "converged"
        expected = reg.prox(mean, 1.0).point
        assert point.point.shape == (4, 3)
        assert np.allclose(point.point, expected, atol=1e-10)
