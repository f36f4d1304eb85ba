import gc
import math
import tracemalloc
from dataclasses import fields
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CallableSmooth,
    analyze_trace_reference,
    trace_csv_text_reference,
)

from proxident.asynchronous import DelayModel
from proxident.identification import analyze_trace, report_text
from proxident.manifolds import pattern_of
from proxident.problems import (
    CompositeProblem,
    SmoothOracle,
    gen_lasso,
    gen_qc_lasso,
    least_squares_oracle,
)
from proxident.prox import ProxResult, Regularizer
from proxident.registry import SOLVERS, run_solver
from proxident.manifolds import SparsityPattern
from proxident.solvers import (
    SolverConfig,
    TraceLog,
    TraceRecord,
    fixed_point_residual,
    run_apg,
    run_dr,
    run_pg,
    run_saga,
    trace_csv_text,
    trace_to_csv,
)


def one_dim_problem(components=1):
    # f(x) = 0.5*(x-2)^2, g = |x| -> minimizer at 1
    return CompositeProblem(
        least_squares_oracle(np.array([[1.0]]), np.array([2.0]),
                             components=components),
        Regularizer.l1(1, 1.0),
    )


class ZeroRegularizer(Regularizer):
    """g identically zero: the prox is the identity."""

    def __init__(self, n):
        super().__init__("l1", 1.0, n)

    def value(self, x):
        return 0.0

    def prox(self, u, gamma):
        u = np.asarray(u, dtype=float)
        return ProxResult(u.copy(), pattern_of(u, self.collection), 0.0)


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs,field", [
        ({"stop_tol": float("nan")}, "stop_tol"),
        ({"stop_tol": math.inf}, "stop_tol"),
        ({"stop_tol": -1e-12}, "stop_tol"),
        ({"max_iter": 300.0}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
        ({"max_iter": 0}, "max_iter"),
        ({"trace_every": 2.5}, "trace_every"),
        ({"trace_every": False}, "trace_every"),
        ({"trace_every": -1}, "trace_every"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got seed=-1"),
        ({"stop_tol": "1e-9"}, "stop_tol must be a real number, got '1e-9'"),
        ({"stop_tol": True}, "stop_tol must be a real number, got True"),
        ({"stop_tol": None}, "stop_tol must be a real number, got None"),
        ({"gamma": "0.001"}, "gamma must be a real number, got '0.001'"),
        ({"gamma": True}, "gamma must be a real number, got True"),
        ({"gamma": 1j}, "gamma must be a real number, got 1j"),
        ({"keep_u": "no"}, "keep_u must be a bool, got 'no'"),
        ({"keep_u": 1}, "keep_u must be a bool, got 1"),
        ({"keep_u": None}, "keep_u must be a bool, got None"),
    ])
    def test_rejects_bad_settings_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**kwargs)

    def test_accepts_integral_counts(self):
        config = SolverConfig(max_iter=np.int64(7), trace_every=np.int32(2),
                              stop_tol=0)
        _, log = run_pg(gen_lasso(20, 8, seed=9), config)
        assert log.iterations == 7 and [r.k for r in log] == [1, 3, 5, 7]


class TestPG:
    def test_one_dim(self):
        pt, log = run_pg(one_dim_problem(), SolverConfig(gamma=1.0, stop_tol=1e-14))
        assert pt.point[0] == pytest.approx(1.0, abs=1e-12)
        assert log.converged

    def test_zero_g_is_gradient_descent(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 4))
        b = rng.standard_normal(8)
        oracle = least_squares_oracle(A, b)
        problem = CompositeProblem(oracle, ZeroRegularizer(4))
        gamma = 1.0 / oracle.lipschitz
        pt, log = run_pg(problem, SolverConfig(gamma=gamma, stop_tol=0.0,
                                                max_iter=20, keep_u=True))
        x = np.zeros(4)
        for record in log:
            x = x - gamma * oracle.gradient(x)
            assert np.allclose(record.u, x, atol=1e-14)

    def test_qc_instance_identifies(self):
        p = gen_qc_lasso(n=12, s=3, delta=0.5, seed=7)
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-12))
        assert pt.pattern == pattern_of(p.xstar, p.reg.collection)

    def test_gamma_range_enforced(self):
        p = one_dim_problem()
        with pytest.raises(ValueError):
            run_pg(p, SolverConfig(gamma=2.0))  # 2/L is excluded

    def test_monotone_objective_on_lasso(self):
        p = gen_lasso(25, 10, seed=1)
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-11))
        objs = [r.objective for r in log]
        assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))

    def test_trace_cadence(self):
        p = gen_lasso(25, 10, seed=1)
        pt, log = run_pg(p, SolverConfig(stop_tol=0.0, max_iter=10,
                                          trace_every=3))
        assert len(log) == math.ceil(10 / 3)
        assert [r.k for r in log] == [1, 4, 7, 10]

    def test_fixed_point_residual_at_termination(self):
        p = gen_lasso(25, 10, seed=2)
        cfg = SolverConfig(stop_tol=1e-9)
        pt, log = run_pg(p, cfg)
        assert fixed_point_residual(p, pt.point, log.gamma) <= 10 * cfg.stop_tol


class TestAPG:
    def test_first_step_is_plain_pg(self):
        p = gen_lasso(25, 10, seed=3)
        cfg = SolverConfig(stop_tol=0.0, max_iter=1, keep_u=True)
        pt_a, log_a = run_apg(p, cfg)
        pt_p, log_p = run_pg(p, SolverConfig(gamma=log_a.gamma, stop_tol=0.0,
                                             max_iter=1, keep_u=True))
        assert np.array_equal(log_a[0].u, log_p[0].u)

    def test_one_dim(self):
        pt, log = run_apg(one_dim_problem(), SolverConfig(stop_tol=1e-14))
        assert pt.point[0] == pytest.approx(1.0, abs=1e-10)

    def test_gamma_range(self):
        p = one_dim_problem()
        with pytest.raises(ValueError):
            run_apg(p, SolverConfig(gamma=1.5))  # above 1/L

    def test_faster_than_pg_on_tall_lasso(self):
        p = gen_lasso(200, 100, seed=4)
        ref, _ = run_pg(p, SolverConfig(stop_tol=1e-13, max_iter=200_000))
        fstar = p.objective(ref.point)

        def iters_to_gap(runner):
            _, log = runner(p, SolverConfig(stop_tol=0.0, max_iter=3000))
            for r in log:
                if r.objective - fstar <= 1e-6:
                    return r.k
            return None

        k_pg, k_apg = iters_to_gap(run_pg), iters_to_gap(run_apg)
        assert k_apg is not None and k_pg is not None and k_apg < k_pg


class TestDR:
    def test_one_dim_prox_f_closed_form(self):
        p = one_dim_problem()
        # prox of f(x)=0.5*(x-2)^2 is (v + 2*gamma)/(1 + gamma)
        for v in (-1.0, 0.3, 5.0):
            got = p.smooth.prox(np.array([v]), 0.7)
            assert got[0] == pytest.approx((v + 2 * 0.7) / 1.7, abs=1e-12)
        pt, log = run_dr(p, SolverConfig(stop_tol=1e-13))
        assert pt.point[0] == pytest.approx(1.0, abs=1e-10)

    def test_large_gamma_still_converges(self):
        p = one_dim_problem()
        pt, log = run_dr(p, SolverConfig(gamma=10.0, stop_tol=1e-13))
        assert pt.point[0] == pytest.approx(1.0, abs=1e-9)

    def test_needs_prox(self):
        oracle = CallableSmooth(lambda x: 0.0, lambda x: np.zeros(2), 1.0)
        problem = CompositeProblem(oracle, Regularizer.l1(2, 1.0))
        with pytest.raises(ValueError):
            run_dr(problem)

    def test_agrees_with_pg(self):
        p = gen_lasso(30, 12, seed=5)
        pt_p, _ = run_pg(p, SolverConfig(stop_tol=1e-13, max_iter=200_000))
        pt_d, _ = run_dr(p, SolverConfig(stop_tol=1e-13, max_iter=200_000))
        tol = 1e-6 * (1 + np.linalg.norm(pt_p.point))
        assert np.linalg.norm(pt_p.point - pt_d.point) <= tol


class TestSAGA:
    def test_single_component_reduces_to_pg(self):
        p = one_dim_problem(components=1)
        gamma = 1.0 / (3 * p.smooth.components[0].lipschitz)
        cfg = SolverConfig(gamma=gamma, stop_tol=0.0, max_iter=30, keep_u=True)
        _, log_s = run_saga(p, cfg)
        _, log_p = run_pg(p, cfg)
        for rs, rp in zip(log_s, log_p):
            assert np.allclose(rs.u, rp.u, atol=1e-14)

    def test_two_component_mean(self):
        A = np.array([[1.0], [1.0]]) / np.sqrt(2)
        b = np.array([1.0, 3.0]) / np.sqrt(2)
        p = CompositeProblem(least_squares_oracle(A, b, components=2),
                             Regularizer.l1(1, 1.0))
        pt, log = run_saga(p, SolverConfig(stop_tol=1e-13, max_iter=100_000))
        assert pt.point[0] == pytest.approx(1.0, abs=1e-9)

    def test_trajectory_matches_reference_loop(self):
        # independent reimplementation of the update recursion, recomputing
        # the table mean from scratch each iteration (audits the incremental
        # bookkeeping in the solver)
        p = gen_lasso(20, 6, seed=6, components=5)
        cfg = SolverConfig(stop_tol=0.0, max_iter=200, keep_u=True, seed=9)
        _, log = run_saga(p, cfg)
        comps = p.smooth.components
        gamma = log.gamma
        rng = np.random.default_rng(9)
        x = np.zeros(6)
        table = [c.gradient(x) for c in comps]
        for record in log:
            i = int(rng.integers(5))
            g_i = comps[i].gradient(x)
            u = x - gamma * (g_i - table[i] + np.mean(table, axis=0))
            table[i] = g_i
            x = p.reg.prox(u, gamma).point
            assert np.allclose(record.u, u, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 37, 1000])
    def test_block_draws_are_one_draw_per_iteration(self, m):
        # component j has the constant gradient j + 1, so the iterate drifts
        # and the run goes all 600 iterations; after the table fill (m
        # calls at k = 1) each iteration evaluates the component it drew
        calls = []

        def component(j):
            def gradient(x):
                calls.append(j)
                return np.full(2, j + 1.0)
            return CallableSmooth(lambda x: 0.0, gradient, 1.0)

        smooth = CallableSmooth(lambda x: 0.0, lambda x: np.zeros(2), 1.0,
                                components=[component(j) for j in range(m)])
        problem = CompositeProblem(smooth, Regularizer.l1(2, 1e-3))
        _, log = run_saga(problem, SolverConfig(stop_tol=0.0, max_iter=600,
                                                seed=m))
        rng = np.random.default_rng(m)
        assert log.iterations == 600
        assert calls[m:] == [int(rng.integers(m)) for _ in range(600)]

    def test_needs_components(self):
        p = CompositeProblem(
            least_squares_oracle(np.eye(2), np.ones(2)),
            Regularizer.l1(2, 1.0),
        )
        with pytest.raises(ValueError):
            run_saga(p)


class TestDeterminismAndCSV:
    def test_bit_identical_traces(self, tmp_path):
        p = gen_lasso(30, 12, seed=8)
        cfg = SolverConfig(stop_tol=1e-11, seed=42)
        _, log1 = run_saga(p, cfg)
        _, log2 = run_saga(p, cfg)
        t1 = trace_to_csv(log1, tmp_path / "a.csv")
        t2 = trace_to_csv(log2, tmp_path / "b.csv")
        assert t1 == t2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_schema(self, tmp_path):
        p = gen_lasso(20, 8, seed=9)
        _, log = run_pg(p, SolverConfig(stop_tol=1e-8))
        text = trace_to_csv(log, tmp_path / "t.csv")
        header = text.splitlines()[0]
        assert header == "k,objective,nnz,pattern_hash,u_step,comm_coords,wallclock_s"
        first = text.splitlines()[1].split(",")
        assert first[0] == "1"
        assert len(first) == 7

    def test_pattern_hash_column(self, tmp_path):
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=10)
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-12))
        text = trace_to_csv(log, tmp_path / "t.csv")
        last = text.strip().splitlines()[-1].split(",")
        assert last[3] == pt.pattern.packed_hex()


    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_csv_matches_packing_every_row(self, data):
        # a few distinct patterns (lengths may differ), repeated in turn or
        # at random; every record holds its own pattern object
        distinct = data.draw(st.lists(
            st.lists(st.integers(0, 1), max_size=20), min_size=1, max_size=3))
        length = data.draw(st.integers(0, 15))
        if data.draw(st.booleans()):
            rows = [distinct[i % len(distinct)] for i in range(length)]
        else:
            rows = data.draw(st.lists(st.sampled_from(distinct),
                                      min_size=length, max_size=length))
        extras = data.draw(st.booleans())
        log = TraceLog()
        for k, b in enumerate(rows, 1):
            log.append(k, data.draw(st.floats()), SparsityPattern(b), sum(b),
                       data.draw(st.floats(0.0, 1.0)),
                       accel_active=k % 2 if extras else None,
                       enforced_count=k % 3 if extras else None)
        assert trace_csv_text(log) == trace_csv_text_reference(log)

    def test_records_take_no_new_attributes(self):
        record = TraceRecord(k=1, objective=0.0, pattern=SparsityPattern([1]),
                             nnz=1, u_step=0.0)
        with pytest.raises(AttributeError):
            record.note = "slotted"


class TestSharedPatterns:
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("name", ["pg", "saga", "dave-pg"])
    def test_one_pattern_object_per_change(self, name, every):
        problem = gen_qc_lasso(n=20, s=5, delta=0.5, seed=1)
        point, log = run_solver(name, problem, SolverConfig(trace_every=every))
        keys = [r.pattern.bits.tobytes() for r in log]
        same = [a == b for a, b in zip(keys, keys[1:])]
        assert True in same and False in same
        assert [b.pattern is a.pattern for a, b in zip(log, log[1:])] == same
        assert len({id(r.pattern) for r in log}) == same.count(False) + 1
        assert log[-1].pattern == point.pattern

    @pytest.mark.parametrize("name", ["pg", "saga", "dave-pg"])
    def test_a_pattern_is_built_only_when_it_changes(self, name, monkeypatch):
        built = []
        init = SparsityPattern.__init__

        def counting_init(self, bits):
            built.append(1)
            init(self, bits)

        monkeypatch.setattr(SparsityPattern, "__init__", counting_init)
        problem = gen_qc_lasso(n=20, s=5, delta=0.5, seed=1)
        point, log = run_solver(name, problem, SolverConfig(trace_every=1))
        keys = log.pattern_keys()
        changes = sum(a != b for a, b in zip(keys, keys[1:]))
        # one prox call per iteration for these solvers, and each hands
        # back its pattern unchecked and uncopied: the checking constructor
        # runs at most twice a run, not once a call
        assert 2 < changes + 1 < log.iterations
        assert len(built) <= 2
        assert point.pattern == log[-1].pattern


def _drawn_records(data, mixed):
    """TraceRecords as runs make them: k at a cadence of 1 to 3
    (trace_every), patterns drawn from a few distinct ones, each row
    holding the shared object or an equal copy, and a u vector on every
    row or on none (keep_u). When mixed, each extra field of each row is
    an int or None; otherwise every row reports both or neither."""
    distinct = data.draw(st.lists(
        st.lists(st.integers(0, 1), max_size=8), min_size=1, max_size=3))
    shared = [SparsityPattern(bits) for bits in distinct]
    every = data.draw(st.integers(1, 3))
    keep_u, extras = data.draw(st.booleans()), data.draw(st.booleans())
    extra = st.none() | st.integers(0, 5)
    records = []
    for i in range(data.draw(st.integers(0, 12))):
        j = data.draw(st.integers(0, len(distinct) - 1))
        if mixed:
            accel, enforced = data.draw(extra), data.draw(extra)
        else:
            accel, enforced = (i % 2, i % 3) if extras else (None, None)
        records.append(TraceRecord(
            k=1 + i * every, objective=data.draw(st.floats()),
            pattern=(shared[j] if data.draw(st.booleans())
                     else SparsityPattern(distinct[j])),
            nnz=data.draw(st.integers(0, 8)),
            u_step=data.draw(st.floats(0.0, 1.0)),
            comm_coords=data.draw(st.integers(0, 10**6)),
            wallclock=data.draw(st.floats(0.0, 1e6)),
            accel_active=accel, enforced_count=enforced,
            u=np.full(2, float(i)) if keep_u else None,
        ))
    return records


def _appended(records):
    """A TraceLog holding the records' rows, each added by TraceLog.append."""
    log = TraceLog()
    for r in records:
        log.append(*(getattr(r, field.name) for field in fields(r)))
    return log


def _row(record):
    """A record's fields, floats by repr (NaN and -0.0 included) and the
    pattern and u by identity."""
    r = record
    return (r.k, repr(r.objective), id(r.pattern), r.nnz, repr(r.u_step),
            r.comm_coords, repr(r.wallclock), r.accel_active,
            r.enforced_count, id(r.u))


class TestColumnarLog:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_csv_and_report_match_the_references(self, data):
        records = _drawn_records(data, mixed=data.draw(st.booleans()))
        log = _appended(records)
        assert trace_csv_text(log) == trace_csv_text_reference(records)
        if not records:
            with pytest.raises(ValueError):
                analyze_trace(log)
            return
        got, want = analyze_trace(log), analyze_trace_reference(records)
        assert got == want and report_text(got) == report_text(want)
        assert got.pattern_final is records[-1].pattern

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_read_back_as_appended(self, data):
        records = _drawn_records(data, mixed=False)
        log = _appended(records)
        n = len(records)
        want = [_row(r) for r in records]
        assert len(log) == n and bool(log) == bool(records)
        assert [_row(r) for r in log] == want
        assert [_row(log[i]) for i in range(-n, n)] == want + want
        bound = st.none() | st.integers(-n - 2, n + 2)
        index = slice(data.draw(bound), data.draw(bound),
                      data.draw(st.sampled_from([None, 1, 2, -1, -3])))
        rows = log[index]
        assert isinstance(rows, list)
        assert [_row(r) for r in rows] == want[index]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                log[i]

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_run_logs_match_the_references(self, name):
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=2)
        config = SolverConfig(stop_tol=1e-9, trace_every=3, keep_u=True)
        _, log = run_solver(name, p, config)
        records = list(log)
        assert trace_csv_text(log) == trace_csv_text_reference(records)
        assert analyze_trace(log) == analyze_trace_reference(records)
        assert all(r.u is u for r, u in zip(records, log.u))
        again = _appended(records)
        assert [_row(r) for r in again] == [_row(r) for r in records]


class TestTraceMemory:
    def test_a_row_holds_at_most_120_bytes(self):
        # about 1130 rows; one record object per row held about 270 bytes
        # a row, the typed columns about 80
        problem = gen_qc_lasso(20, 5, 0.5, seed=1)
        config = SolverConfig(stop_tol=0.0, max_iter=5000)
        delays = DelayModel.uniform(0.0, 3.0)
        run_solver("dave-pg", problem, config, delay_model=delays)  # caches
        gc.collect()
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            point, log = run_solver("dave-pg", problem, config,
                                    delay_model=delays)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(log) > 1000
        assert held / len(log) <= 120


class TestCrossSolverAgreement:
    def test_all_four_agree(self):
        p = gen_lasso(50, 20, seed=11)
        cfg = SolverConfig(stop_tol=1e-12, max_iter=400_000)
        points = [fn(p, cfg)[0].point for fn in (run_pg, run_apg, run_dr, run_saga)]
        scale = 1e-6 * (1 + np.linalg.norm(points[0]))
        for pt in points[1:]:
            assert np.linalg.norm(pt - points[0]) <= scale


class TestFixedPointResidualInvariant:
    @pytest.mark.parametrize("runner", [run_pg, run_apg, run_saga])
    def test_residual_small_at_termination(self, runner):
        p = gen_lasso(30, 12, seed=12)
        cfg = SolverConfig(stop_tol=1e-9, max_iter=400_000)
        pt, log = runner(p, cfg)
        assert log.converged
        assert fixed_point_residual(p, pt.point, log.gamma) <= 10 * cfg.stop_tol


class TestNonconvexRegularizers:
    # convergence claims are limited to "the u-step fell below tolerance";
    # cross-solver agreement is not asserted for these kinds
    def test_l0_least_squares(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((20, 8))
        x_true = np.zeros(8)
        x_true[[1, 5]] = [3.0, -2.0]
        p = CompositeProblem(least_squares_oracle(A, A @ x_true),
                             Regularizer.l0(8, 0.5))
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-12))
        assert log.converged
        assert np.count_nonzero(pt.point) == pt.pattern.count_ones()

    def test_potts_denoising(self):
        signal = np.repeat([0.0, 4.0], 6) + 0.05 * np.random.default_rng(14).standard_normal(12)
        from proxident.problems import matrix_ls_oracle  # noqa: F401
        p = CompositeProblem(
            least_squares_oracle(np.eye(12), signal),
            Regularizer.potts1d(12, 0.5),
        )
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-12))
        assert log.converged
        assert pt.pattern.count_ones() == 1  # one jump survives

    def test_rank_matrix(self):
        from proxident.problems import matrix_ls_oracle

        rng = np.random.default_rng(15)
        target = np.outer(rng.standard_normal(6), rng.standard_normal(6)) * 2
        p = CompositeProblem(matrix_ls_oracle(target),
                             Regularizer.rank(6, 6, 0.1))
        pt, log = run_pg(p, SolverConfig(stop_tol=1e-12))
        assert log.converged
        assert p.reg.collection.structure_count(pt.pattern) == 1


class TestDRDegenerateSmooth:
    def test_zero_f_becomes_prox_fixed_point(self):
        class ZeroSmooth(SmoothOracle):
            lipschitz = 0.0

            def _value(self, x):
                return 0.0

            def _gradient(self, x):
                return np.zeros_like(x)

            def prox(self, v, gamma):
                return np.asarray(v, dtype=float)

        p = CompositeProblem(ZeroSmooth(), Regularizer.l1(3, 1.0))
        pt, log = run_dr(p, SolverConfig(gamma=1.0, stop_tol=1e-14,
                                         max_iter=1000))
        # with prox_f the identity, u_{k+1} = x_k and the scheme settles at
        # a fixed point of the prox of g (here the origin)
        assert log.converged
        assert np.allclose(pt.point, 0.0)


class TestZeroLipschitz:
    """A design of zeros has L = 0 (f is constant): the default step is 1
    and every gamma > 0 is admissible, as for Douglas-Rachford."""

    NAMES = ["pg", "apg", "saga", "pg-adaptive", "predictor-corrector",
             "random-subspace"]

    @staticmethod
    def problem():
        return CompositeProblem(
            least_squares_oracle(np.zeros((6, 4)), np.ones(6), components=3),
            Regularizer.l1(4, 0.5),
        )

    @pytest.mark.parametrize("gamma", [None, 0.5, 1e6])
    @pytest.mark.parametrize("name", NAMES)
    def test_every_gamma_runs(self, name, gamma):
        # the minimiser of g alone is 0
        config = SolverConfig(gamma=gamma, max_iter=500)
        pt, log = run_solver(name, self.problem(), config,
                             x0=np.array([3.0, -1.0, 0.2, 0.0]))
        assert log.gamma == (1.0 if gamma is None else gamma)
        assert log.converged
        assert np.array_equal(pt.point, np.zeros(4))

    @pytest.mark.parametrize("name", NAMES)
    def test_nonpositive_gamma_rejected(self, name):
        with pytest.raises(ValueError, match=r"gamma=-1 outside admissible "
                           r"\(0, inf\)"):
            run_solver(name, self.problem(), SolverConfig(gamma=-1.0))


class SpyL1(Regularizer):
    """l1 regularizer that keeps every array its prox is called on."""

    def __init__(self, n, lam):
        super().__init__("l1", lam, n)
        self.inputs = []

    def prox(self, u, gamma):
        self.inputs.append(u)
        return super().prox(u, gamma)


def overshooting_problem(n=4):
    """f(x) = 5 * ||x - 1||^2 advertising L = mu = 1 (and two identical
    components), so every default step overshoots and the run diverges."""
    def value(x):
        return 5.0 * float(np.sum((x - 1.0) ** 2))

    def gradient(x):
        return 10.0 * (x - 1.0)

    part = CallableSmooth(value, gradient, 1.0, 1.0)
    return CompositeProblem(
        CallableSmooth(value, gradient, 1.0, 1.0, components=[part, part]),
        Regularizer.l1(n, 1e-3),
    )


class TestRunStatus:
    @pytest.mark.parametrize("name", ["pg", "apg", "saga", "dave-pg",
                                      "pg-adaptive", "predictor-corrector",
                                      "random-subspace"])
    def test_divergence_ends_with_status(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the run
            point, log = run_solver(name, overshooting_problem(),
                                    SolverConfig(max_iter=100_000))
        assert log.status == "diverged" and not log.converged
        assert 0 < len(log) and log[-1].k == log.iterations < 100_000
        assert np.isfinite(point.point).all()

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_overflowing_start_ends_diverged(self, name):
        p = gen_qc_lasso(n=20, s=5, delta=0.5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the run
            point, log = run_solver(name, p, SolverConfig(),
                                    x0=np.full(20, 1e308))
        assert log.status == "diverged" and not log.converged

    def test_first_step_divergence_returns_the_start(self):
        # an infinite gradient makes the first u-step inf, before any prox
        p = CompositeProblem(
            CallableSmooth(lambda x: 0.0, lambda x: np.full_like(x, np.inf),
                           1.0),
            Regularizer.l1(3, 1.0),
        )
        x0 = np.array([1.0, 0.0, -2.0])
        point, log = run_pg(p, SolverConfig(), x0=x0)
        assert (log.status, log.iterations, len(log)) == ("diverged", 0, 0)
        assert np.array_equal(point.point, x0)
        assert point.pattern is None and point.value is None

    def test_returns_the_last_prox_result(self):
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=2)
        point, log = run_pg(p, SolverConfig(max_iter=3))
        assert isinstance(point, ProxResult) and log[-1].k == 3
        assert point.pattern == log[-1].pattern
        assert p.smooth.value(point.point) + point.value == log[-1].objective

    def test_converged_and_max_iter(self):
        # a qc instance with components, so that saga and dave-pg run too
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=2)
        for name in SOLVERS:
            _, log = run_solver(name, p, SolverConfig(stop_tol=1e-9))
            assert (log.status, log.converged) == ("converged", True), name
            _, log = run_solver(name, p, SolverConfig(max_iter=3))
            assert (log.status, log.converged) == ("max_iter", False), name
            assert log.iterations == 3

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_trace_cadence_and_u_copies(self, name):
        p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=2)
        reg = SpyL1(10, p.reg.lam)
        config = SolverConfig(stop_tol=0.0, max_iter=10, trace_every=3,
                              keep_u=True)
        _, log = run_solver(name, CompositeProblem(p.smooth, reg), config)
        assert [r.k for r in log] == [1, 4, 7, 10]
        assert (log.status, log.iterations) == ("max_iter", 10)
        # each kept u is a copy: it shares memory with no array the solver
        # handed to the prox
        kept = [r.u for r in log]
        assert all(u is not None for u in kept)
        assert not any(np.shares_memory(u, v)
                       for u in kept for v in reg.inputs)


class TestTraceObjective:
    """The objective column is f(x_k) plus the value g(x_k) the prox
    reported, which is Regularizer.value's at x_k bit for bit for the
    vector kinds."""

    @pytest.mark.parametrize("solver", ["pg", "apg", "dr", "pg-adaptive"])
    @pytest.mark.parametrize("kind, lam", [("l1", 0.5), ("tv1d", 0.5),
                                           ("potts1d", 0.05)])
    def test_objective_is_f_plus_g(self, kind, lam, solver):
        base = gen_lasso(40, 30, seed=2, components=4)
        problem = CompositeProblem(base.smooth,
                                   getattr(Regularizer, kind)(30, lam))
        config = SolverConfig(stop_tol=1e-9, max_iter=300, trace_every=2,
                              keep_u=True)
        _, log = run_solver(solver, problem, config)
        assert len(log) > 10
        for record in log:
            x = problem.reg.prox(record.u, log.gamma).point
            want = problem.smooth.value(x) + problem.reg.value(x)
            assert record.objective.hex() == want.hex()

    def test_nuclear_objective_within_roundoff(self):
        from proxident.problems import gen_lowrank_matrix_problem

        problem = gen_lowrank_matrix_problem(size=8, rank=2, seed=1)
        _, log = run_pg(problem, SolverConfig(stop_tol=1e-9, max_iter=200,
                                              keep_u=True))
        for record in log:
            x = problem.reg.prox(record.u, log.gamma).point
            assert record.objective == pytest.approx(problem.objective(x),
                                                     rel=1e-12, abs=0.0)
