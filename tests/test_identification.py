import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CallableSmooth, analyze_trace_reference

from proxident.identification import (
    _ball_patterns,
    analyze_trace,
    enlarged_bound_l1,
    qc_check,
    report_text,
)
from proxident.manifolds import SparsityPattern, pattern_leq, rank_levels
from proxident.problems import (
    CompositeProblem,
    gen_lowrank_matrix_problem,
    gen_qc_lasso,
)
from proxident.prox import Regularizer
from proxident.solvers import SolverConfig, TraceLog, run_pg


def P(*bits):
    return SparsityPattern(list(bits))


def stub_problem(reg, ustar, gamma=1.0):
    """A problem whose certified pair is (prox(ustar), ustar) at gamma, for
    qc_check, which reads no smooth term."""
    ustar = np.asarray(ustar, dtype=float)
    return CompositeProblem(
        CallableSmooth(None, None, 1.0), reg,
        xstar=reg.prox(ustar, gamma).point, ustar=ustar, cert_gamma=gamma,
    )


def log_of(patterns, counts=None):
    """A TraceLog whose rows carry patterns, with nnz their count of ones
    unless counts are given."""
    if counts is None:
        counts = [p.count_ones() for p in patterns]
    log = TraceLog()
    for k, (p, c) in enumerate(zip(patterns, counts), 1):
        log.append(k, 0.0, p, c, 0.0)
    return log


class TestAnalyzeTrace:
    def test_constant_trace(self):
        rep = analyze_trace(log_of([P(0, 1), P(0, 1), P(0, 1)]))
        assert rep.first_stable_iter == 0
        assert rep.oscillation_count == 0
        assert rep.monotone

    def test_one_change(self):
        rep = analyze_trace(log_of([P(1, 1), P(0, 1), P(0, 1)]))
        assert rep.first_stable_iter == 1
        assert rep.oscillation_count == 1
        assert rep.pattern_final == P(0, 1)

    def test_oscillation(self):
        rep = analyze_trace(log_of([P(0, 1), P(1, 1), P(0, 1), P(0, 1)]))
        assert rep.oscillation_count == 2
        assert rep.first_stable_iter == 2
        assert not rep.monotone

    def test_rank_trace_reads_the_rank(self):
        # a rank pattern has a single 0 bit, at the rank, so its count of
        # ones is the same at every rank; monotone reads the record's nnz
        coll = rank_levels(3, 3)
        patterns = [SparsityPattern(np.arange(len(coll)) != r)
                    for r in (1, 3, 2)]
        trace = log_of(patterns, [coll.structure_count(p) for p in patterns])
        assert [r.nnz for r in trace] == [1, 3, 2]
        rep = analyze_trace(trace)
        assert not rep.monotone
        assert (rep.first_stable_iter, rep.oscillation_count) == (2, 2)
        assert analyze_trace(log_of(patterns[1::-1], [3, 1])).monotone

    def test_oscillation_zero_iff_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pats = [P(*rng.integers(0, 2, size=3)) for _ in range(6)]
            rep = analyze_trace(log_of(pats))
            constant = all(p == pats[0] for p in pats)
            assert (rep.oscillation_count == 0) == constant

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            analyze_trace(TraceLog())

    def test_report_text_schema(self):
        text = report_text(analyze_trace(log_of([P(0, 1)])))
        assert text.startswith("first_stable_iter=0\n")
        assert "pattern_hash=" in text


def _pattern_sequence(data):
    """A random sequence (mixed lengths), a single pattern, a constant
    one, an alternating one, or a constant one that changes last."""
    n = data.draw(st.integers(0, 6))
    patterns = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    shape = data.draw(st.sampled_from(
        ["random", "single", "constant", "alternating", "last-change"]))
    length = data.draw(st.integers(1, 12))
    if shape == "random":
        return [SparsityPattern(b) for b in data.draw(st.lists(
            st.lists(st.integers(0, 1), max_size=6), min_size=1, max_size=12))]
    bits = data.draw(patterns)
    if shape == "single":
        return [SparsityPattern(bits)]
    if shape == "constant":
        return [SparsityPattern(bits) for _ in range(length)]
    if shape == "alternating":
        other = data.draw(patterns)
        return [SparsityPattern((bits, other)[i % 2]) for i in range(length)]
    last = [1 - bits[0]] + bits[1:] if bits else [0]
    return [SparsityPattern(bits) for _ in range(length)] + [
        SparsityPattern(last)]


class TestAnalyzeTraceMatchesTwoLoops:
    @staticmethod
    def _check(trace):
        got, want = analyze_trace(trace), analyze_trace_reference(trace)
        assert got == want and report_text(got) == report_text(want)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_records(self, data):
        patterns = _pattern_sequence(data)
        self._check(log_of(patterns, [data.draw(st.integers(0, 6))
                                      for _ in patterns]))


class TestEnlargedBound:
    def test_closed_form_example(self):
        got = enlarged_bound_l1(np.array([0.5, 2.0]), 1.0, 0.2)
        assert got == P(0, 1)

    def test_eps_zero_is_prox_pattern(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(10)
        reg = Regularizer.l1(10, 0.8)
        assert enlarged_bound_l1(u, 0.7 * 0.8, 0.0) == reg.prox(u, 0.7).pattern

    def test_huge_eps_all_ones(self):
        u = np.array([0.1, -0.2, 3.0])
        got = enlarged_bound_l1(u, 1.0, 1.0 + 3.0 + 0.1)
        assert got == P(1, 1, 1)

    def test_sampled_below_closed_form(self):
        # every draw qc_check's sampled branch takes lies in the ball, so
        # its l1 pattern lies under the closed form
        rng = np.random.default_rng(2)
        for seed in range(5):
            u = rng.standard_normal(8)
            reg = Regularizer.l1(8, 1.0)
            eps = rng.uniform(0.1, 1.0)
            closed = enlarged_bound_l1(u, 0.9, eps)
            for pattern in _ball_patterns(reg, u, 0.9, eps, 200, seed):
                assert pattern_leq(pattern, closed)

    def test_nan_eps_rejected(self):
        # a NaN eps would bound the ball below its eps = 0 pattern 110
        u = np.array([5.0, -3.0, 0.1])
        assert enlarged_bound_l1(u, 1.0, 0.0) == P(1, 1, 0)
        with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
            enlarged_bound_l1(u, 1.0, float("nan"))

    @pytest.mark.parametrize("step", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_step_rejected(self, step):
        # a NaN or infinite step certified every coordinate zero
        with pytest.raises(ValueError,
                           match="step must be finite and nonnegative"):
            enlarged_bound_l1(np.ones(3), step, 0.1)

    def test_sampled_nan_eps_rejected(self):
        p = stub_problem(Regularizer.tv1d(3, 1.0), [5.0, -3.0, 0.1])
        with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
            qc_check(p, float("nan"))

    @pytest.mark.parametrize("reg,ustar", [
        (Regularizer.l1(3, 1.0), [5.0, -3.0, 0.1]),
        (Regularizer.tv1d(4, 1.0), [0.0, 0.0, 1.0, 1.0]),
        (Regularizer.rank(3, 2, 1.0), np.ones((3, 2))),
    ])
    def test_sampled_eps_inf_is_all_ones(self, reg, ustar):
        # the ball is the whole space: every set is left somewhere, as the
        # l1 closed form's all-ones bound says, so no pattern holds on it;
        # each draw would be infinite
        assert qc_check(stub_problem(reg, ustar), np.inf, n_samples=5) is False
        if reg.kind == "l1":
            assert enlarged_bound_l1(ustar, 1.0, np.inf) == P(1, 1, 1)

    @pytest.mark.parametrize("ustar", [[np.nan, 1.0], [np.inf, 0.0],
                                       [0.0, -np.inf]])
    def test_non_finite_ustar_rejected(self, ustar):
        # a NaN coordinate would be certified zero over the whole ball
        with pytest.raises(ValueError, match="ustar must be finite"):
            enlarged_bound_l1(ustar, 0.5, 0.1)

    def test_sampled_eps_zero(self):
        # every draw of the zero ball is the center itself
        u = np.array([0.1, 2.0, -3.0, 0.0, 0.5])
        for reg in (Regularizer.l1(5, 1.0), Regularizer.tv1d(5, 1.0)):
            assert qc_check(stub_problem(reg, u), 0.0, n_samples=10)

    def test_nuclear_wellposed_small_eps(self):
        p = gen_lowrank_matrix_problem(seed=3)
        assert qc_check(p, 1e-3, n_samples=100, seed=0)
        expected = p.reg.prox(p.ustar, p.cert_gamma).pattern
        assert p.reg.collection.structure_count(expected) == 4


    @pytest.mark.parametrize("kind", ["l1", "tv1d"])
    def test_draws_build_no_pattern(self, kind, monkeypatch):
        # each draw's prox hands back its pattern unchecked and uncopied: a
        # call runs the checking constructor at most twice, not once a draw
        # (l1 takes the closed form and draws nothing); each ball holds its
        # center's pattern, so all 1000 draws are taken
        reg = getattr(Regularizer, kind)(20, 0.5)
        u = np.random.default_rng(3).standard_normal(20)
        stub = stub_problem(reg, u)
        p = gen_lowrank_matrix_problem(6, 2, seed=1)
        built = []
        init = SparsityPattern.__init__

        def counting_init(self, bits):
            built.append(1)
            init(self, bits)

        monkeypatch.setattr(SparsityPattern, "__init__", counting_init)
        assert qc_check(stub, 1e-6, n_samples=1000)
        assert len(built) <= 2
        built.clear()
        assert qc_check(p, 1e-3, n_samples=1000)
        assert len(built) <= 2


class TestQCCheck:
    def test_closed_form_true_case(self):
        p = stub_problem(Regularizer.l1(2, 1.0), [0.5, 2.0])
        assert qc_check(p, 0.3)

    def test_boundary_never_qualifies(self):
        p = stub_problem(Regularizer.l1(2, 1.0), [1.0, 2.5])
        for eps in (1e-8, 1e-3, 0.1):
            assert not qc_check(p, eps)

    def test_generator_margin(self):
        for seed in range(5):
            p = gen_qc_lasso(n=12, s=3, delta=0.5, seed=seed)
            eps = p.delta * p.reg.lam * p.cert_gamma / 2
            assert qc_check(p, eps)

    def test_degenerate_generator_fails(self):
        p = gen_qc_lasso(n=12, s=3, delta=0.5, seed=1, degenerate=True)
        assert not qc_check(p, 1e-6)

    def test_sampled_fallback_nuclear(self):
        p = gen_lowrank_matrix_problem(seed=4)
        assert qc_check(p, 1e-3, n_samples=50)
        pd = gen_lowrank_matrix_problem(seed=4, degenerate=True)
        # near-threshold singular values flip under tiny perturbations
        assert not qc_check(pd, 0.2, n_samples=200)

    def test_sampled_true_is_an_estimate_that_over_accepts(self):
        # the nuclear prox's rank changes within the Weyl radius
        # min_i |sigma_i(u*) - gamma*lam| of u*: at 1.5 times it, 200 draws
        # all keep the rank, yet the rank-one move of 1.25 times it along
        # the nearest singular pair, inside the ball, changes it
        for seed in range(20):
            for degenerate in (False, True):
                p = gen_lowrank_matrix_problem(20, 4, degenerate=degenerate,
                                               seed=seed)
                gamma, u = p.cert_gamma, p.ustar
                w, sigma, vt = np.linalg.svd(u)
                gap = sigma - gamma * p.reg.lam
                i = int(np.argmin(np.abs(gap)))
                radius = abs(gap[i])
                assert qc_check(p, 1.5 * radius, n_samples=200)
                move = -1.25 * radius * np.sign(gap[i]) * np.outer(w[:, i],
                                                                   vt[i])
                assert (p.reg.prox(u + move, gamma).pattern
                        != p.reg.prox(u, gamma).pattern)

    def test_nan_eps_rejected(self):
        p = stub_problem(Regularizer.l1(2, 1.0), [0.5, 2.0])
        with pytest.raises(ValueError, match="eps must be nonnegative, got nan"):
            qc_check(p, float("nan"))

    def test_sampled_eps_inf_is_false(self):
        # no pattern holds on the whole space; the l1 closed form agrees
        p = gen_lowrank_matrix_problem(6, 2, seed=1)
        assert qc_check(p, 1e-3, n_samples=5)
        assert qc_check(p, np.inf, n_samples=5) is False
        assert qc_check(stub_problem(Regularizer.l1(2, 1.0), [0.5, 2.0]),
                        np.inf) is False

    @pytest.mark.parametrize("count,message", [
        (0, "n_samples must be >= 1, got n_samples=0"),
        (-3, "n_samples must be >= 1, got n_samples=-3"),
        (2.5, "n_samples must be an integer, got 2.5"),
        (True, "n_samples must be an integer, got True"),
    ])
    def test_sample_count_is_a_positive_integer(self, count, message):
        # with no draw there is no evidence: the sampled check used to
        # certify this degenerate instance at eps = 10 (200 draws refute it)
        p = gen_lowrank_matrix_problem(6, 2, degenerate=True, seed=1)
        assert qc_check(p, 10.0, n_samples=200) is False
        for eps in (0.0, 10.0, np.inf):
            with pytest.raises(ValueError, match=message):
                qc_check(p, eps, n_samples=count)

    def test_needs_ground_truth(self):
        from proxident.problems import gen_lasso

        with pytest.raises(ValueError):
            qc_check(gen_lasso(10, 5, seed=0), 0.1)


class TestScreening:
    """The 0 bits of enlarged_bound_l1(center, step, radius) screen: given
    a ball around the center certified to hold ustar, each is a coordinate
    the prox maps to 0 for every u in the ball, hence zero at the optimum
    (``proxident screen``)."""

    @staticmethod
    def screened(center, radius, step):
        bound = enlarged_bound_l1(center, step, radius)
        return set(np.flatnonzero(bound.bits == 0).tolist())

    def test_examples(self):
        # 0.3 + 0.5 <= 1 certifies coordinate 0 zero on the ball, and
        # 0.3 + 0.8 > 1 certifies nothing
        assert self.screened(np.array([0.3, 2.0]), 0.5, 1.0) == {0}
        assert self.screened(np.array([0.3, 2.0]), 0.8, 1.0) == set()

    @pytest.mark.parametrize("center", [[np.nan, 2.0], [0.3, np.inf]])
    def test_non_finite_center_rejected(self, center):
        # a NaN coordinate fails |c_i| + radius > step, so its 0 bit would
        # screen it
        with pytest.raises(ValueError, match="ustar must be finite"):
            self.screened(center, 0.5, 1.0)

    def test_zero_radius_is_prox_zero_set(self):
        rng = np.random.default_rng(5)
        center = rng.standard_normal(12)
        reg = Regularizer.l1(12, 1.0)
        screened = self.screened(center, 0.0, 0.9)
        prox_zero = set(np.flatnonzero(reg.prox(center, 0.9).point == 0).tolist())
        assert screened == prox_zero

    def test_soundness_on_certified_instances(self):
        # a ball around ustar that provably contains it screens only true zeros
        for seed in range(100):
            p = gen_qc_lasso(n=15, s=4, delta=0.5, seed=seed)
            step = p.cert_gamma * p.reg.lam
            rho = 0.25 * p.delta * step
            rng = np.random.default_rng(seed)
            direction = rng.standard_normal(15)
            center = p.ustar + (rho * 0.9 / np.linalg.norm(direction)) * direction
            for i in self.screened(center, rho, step):
                assert p.xstar[i] == 0.0


class TestSandwich:
    def test_theorem_bounds_along_pg_trace(self):
        p = gen_qc_lasso(n=15, s=4, delta=0.5, seed=6)
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-12, keep_u=True))
        star_pattern = p.reg.prox(p.ustar, p.cert_gamma).pattern
        rep = analyze_trace(log)
        step = log.gamma * p.reg.lam
        assert pt.pattern == star_pattern
        for idx, record in enumerate(log):
            eps = float(np.linalg.norm(record.u - p.ustar))
            outer = enlarged_bound_l1(p.ustar, step, eps)
            assert pattern_leq(record.pattern, outer)
            if idx >= rep.first_stable_iter:
                assert pattern_leq(star_pattern, record.pattern)
