import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import proxident
from proxident.bundles import read_bundle, write_bundle
from proxident.manifolds import pattern_of
from proxident.problems import (
    LeastSquaresOracle,
    SmoothOracle,
    gen_lasso,
    gen_lowrank_matrix_problem,
    gen_qc_lasso,
    least_squares_oracle,
    matrix_ls_oracle,
)
from proxident.prox import prox_l1
from proxident.solvers import SolverConfig, run_apg

GATE_SEEDS = range(100)  # the acceptance gate's certified instances
GATE_SHAPE = dict(n=20, s=5, delta=0.5)


def central_diff(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        e = np.zeros_like(x)
        e[idx] = h
        g[idx] = (fn(x + e) - fn(x - e)) / (2 * h)
        it.iternext()
    return g


class TestLeastSquaresOracle:
    def test_identity_spectrum(self):
        o = least_squares_oracle(np.eye(2), np.array([1.0, 2.0]))
        assert np.array_equal(o.gradient(np.zeros(2)), [-1.0, -2.0])
        assert o.lipschitz == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_spectrum(self):
        o = least_squares_oracle(np.diag([2.0, 1.0]), np.zeros(2))
        assert o.lipschitz == pytest.approx(4.0, abs=1e-8)
        assert o.strong_convexity == pytest.approx(1.0, abs=1e-8)
        # ill-conditioned but nonsingular: mu = 1e-10 * L is kept
        o = least_squares_oracle(np.diag([1.0, 1e-5]), np.zeros(2))
        assert o.strong_convexity == pytest.approx(1e-10, rel=1e-12)

    def test_constants_match_dense_eig(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((50, 20))
        o = least_squares_oracle(A, rng.standard_normal(50))
        ev = np.linalg.eigvalsh(A.T @ A)
        assert o.lipschitz == ev[-1] and o.strong_convexity == ev[0]

    def test_rank_deficient_mu_is_zero(self):
        rng = np.random.default_rng(1)
        wide = rng.standard_normal((5, 10))
        tall = rng.standard_normal((40, 12))
        tall[:, 7] = tall[:, 2]  # a duplicated column
        for A in (wide, tall):  # A^T A singular
            o = least_squares_oracle(A, rng.standard_normal(A.shape[0]))
            assert o.strong_convexity == 0.0 and o.lipschitz > 0.0

    def test_gradient_lipschitz_sampled(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((30, 12))
        o = least_squares_oracle(A, rng.standard_normal(30))
        for _ in range(20):
            x, y = rng.standard_normal(12), rng.standard_normal(12)
            lhs = np.linalg.norm(o.gradient(x) - o.gradient(y))
            assert lhs <= (o.lipschitz + 1e-6) * np.linalg.norm(x - y)

    def test_component_average_consistency(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((24, 8))
        o = least_squares_oracle(A, rng.standard_normal(24), components=6)
        for _ in range(5):
            x = rng.standard_normal(8)
            vals = np.mean([c.value(x) for c in o.components])
            grads = np.mean([c.gradient(x) for c in o.components], axis=0)
            assert vals == pytest.approx(o.value(x), rel=1e-12)
            assert np.allclose(grads, o.gradient(x), atol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((15, 6))
        o = least_squares_oracle(A, rng.standard_normal(15))
        x = rng.standard_normal(6)
        num = central_diff(o.value, x)
        assert np.max(np.abs(num - o.gradient(x))) <= 1e-5 * (
            1 + np.max(np.abs(num))
        )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            least_squares_oracle(np.eye(3), np.ones(2))

    @pytest.mark.parametrize("count", [0, -1, 13])
    def test_bad_component_count_raises_at_construction(self, count):
        rng = np.random.default_rng(8)
        A, b = rng.standard_normal((12, 4)), rng.standard_normal(12)
        with pytest.raises(ValueError, match="component count"):
            least_squares_oracle(A, b, components=count)

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_component_count_is_an_integer(self, count):
        rng = np.random.default_rng(8)
        A, b = rng.standard_normal((12, 4)), rng.standard_normal(12)
        message = f"components must be an integer, got {count!r}"
        with pytest.raises(ValueError, match=message):
            least_squares_oracle(A, b, components=count)
        with pytest.raises(ValueError, match=message):
            least_squares_oracle(A, b).split(count)
        with pytest.raises(ValueError, match=message):
            gen_lasso(12, 4, seed=1, components=count)

    def test_numpy_integer_component_count(self):
        rng = np.random.default_rng(8)
        A, b = rng.standard_normal((12, 4)), rng.standard_normal(12)
        oracle = least_squares_oracle(A, b, components=np.int64(3))
        assert len(oracle.components) == 3


@pytest.fixture
def count_spectra(monkeypatch):
    """Count np.linalg.eigvalsh calls (one per spectrum computed)."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def count_splits(monkeypatch):
    calls = []
    original = LeastSquaresOracle.split

    def counted(oracle, n_components):
        calls.append(n_components)
        return original(oracle, n_components)
    monkeypatch.setattr(LeastSquaresOracle, "split", counted)
    return calls


def data(seed=9, m=40, n=12):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, n)), rng.standard_normal(m)


class TestOracleProducts:
    """value and gradient give the bytes of the @ forms they replaced:
    ndarray.dot makes the same BLAS calls as matmul. A numpy or BLAS under
    which the two differ fails here, not as a changed trace fingerprint."""

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 7), (7, 1), (3, 20),
                                     (20, 20), (40, 20), (69, 37),
                                     (100, 100), (199, 400), (200, 400),
                                     (201, 100), (400, 200), (513, 7)])
    def test_value_and_gradient_bytes_match_matmul(self, m, n):
        rng = np.random.default_rng(1000 * m + n)
        b = rng.standard_normal(m)
        # a C-ordered design and a transposed view
        for A in (rng.standard_normal((m, n)), rng.standard_normal((n, m)).T):
            o = LeastSquaresOracle(A, b)
            # a contiguous point and a strided view
            for x in (rng.standard_normal(n), rng.standard_normal(2 * n)[::2]):
                r = A @ x - b
                assert o.value(x).hex() == (0.5 * float(r @ r)).hex()
                want = o.gram @ x - o.Atb
                assert o.gradient(x).tobytes() == want.tobytes()


class TestLazyConstants:
    """L and mu come from one eigvalsh on first read; the components are
    built on first read."""

    def test_construction_computes_no_spectrum(self, count_spectra,
                                               count_splits):
        o = least_squares_oracle(*data(), components=10)
        assert count_spectra == []
        assert count_splits == []
        o.lipschitz  # the spectrum is computed now, not before
        assert count_spectra == [12]
        o.components
        assert count_spectra == [12] and count_splits == [10]

    def test_bundle_read_computes_no_spectrum(self, tmp_path, count_spectra,
                                              count_splits):
        write_bundle(tmp_path / "b", gen_lasso(40, 12, seed=1, components=10))
        problem = read_bundle(tmp_path / "b")
        assert count_spectra == []
        assert count_splits == []
        assert problem.smooth.component_count == 10
        problem.smooth.strong_convexity
        assert count_spectra == [12]

    def test_strong_convexity_computed_once(self, count_spectra):
        # either constant's first read computes both from one spectrum
        for first, second in (("strong_convexity", "lipschitz"),
                              ("lipschitz", "strong_convexity")):
            o = least_squares_oracle(*data())
            del count_spectra[:]
            value = getattr(o, first)
            assert count_spectra == [12]
            assert getattr(o, first) == value
            getattr(o, second)
            assert count_spectra == [12]

    def test_components_split_once(self, count_splits):
        o = least_squares_oracle(*data(), components=10)
        comps = o.components
        assert count_splits == [10]
        assert o.components is comps and len(comps) == 10
        assert count_splits == [10]

    def test_no_components_without_a_count(self, count_splits):
        o = least_squares_oracle(*data())
        assert o.components is None and o.component_count is None
        assert count_splits == []

    def test_constants_are_read_only(self):
        o = least_squares_oracle(*data(), components=2)
        for name in ("lipschitz", "strong_convexity", "components"):
            with pytest.raises(AttributeError):
                setattr(o, name, None)


def assert_exact_constants(o, A):
    """L and mu are eigvalsh's extremes of A^T A (mu = 0 below numpy's
    matrix_rank cutoff) and lie within 1e-12 * L of the squared singular
    values of A."""
    ev = np.linalg.eigvalsh(A.T @ A)
    assert o.lipschitz == ev[-1]
    singular = ev[0] <= A.shape[1] * np.finfo(float).eps * ev[-1]
    assert o.strong_convexity == (0.0 if singular else ev[0])
    sigma = np.linalg.svd(A, compute_uv=False)
    assert abs(o.lipschitz - sigma[0] ** 2) <= 1e-12 * o.lipschitz
    sigma_min = sigma[-1] if A.shape[0] >= A.shape[1] else 0.0
    assert abs(o.strong_convexity - sigma_min ** 2) <= 1e-12 * o.lipschitz


class TestExactConstants:
    @pytest.mark.parametrize("shape,k", [((40, 12), 10), ((5, 10), 2),
                                         ((7, 3), 7), ((30, 30), 1)])
    def test_constants_and_components_are_exact(self, shape, k):
        A, b = data(seed=shape[0], m=shape[0], n=shape[1])
        o = least_squares_oracle(A, b, components=k)
        assert_exact_constants(o, A)
        rows = np.array_split(np.arange(shape[0]), k)
        assert len(o.components) == k
        for comp, idx in zip(o.components, rows):
            block = np.sqrt(k) * A[idx]
            assert comp.gram.tobytes() == (block.T @ block).tobytes()
            assert_exact_constants(comp, block)

    def test_gate_instances(self):
        for seed in GATE_SEEDS:
            p = gen_qc_lasso(seed=seed, **GATE_SHAPE)
            assert_exact_constants(p.smooth, p.smooth.A)

    def test_default_apg_step_within_its_bound(self):
        # apg's admissible range is gamma <= 1/L, L = sigma_max(A)^2
        for seed in GATE_SEEDS:
            p = gen_qc_lasso(seed=seed, **GATE_SHAPE)
            _, trace = run_apg(p, SolverConfig(max_iter=1))
            sigma_max = np.linalg.svd(p.smooth.A, compute_uv=False)[0]
            assert trace.gamma * sigma_max ** 2 <= 1.0 + 1e-14


# diagonal entries and point entries with signed zeros, subnormals, entries
# whose squares underflow and products that overflow
DIAGONAL = [1.0, 0.3, 0.0, -2.0, -0.0, 1e-200, 5e-324, 1e150]
POINT = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1.0,
         -0.7]


def dense_products(A, b, x):
    """The dense path's value and gradient of 0.5 * ||A x - b||^2 at x."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = A.dot(x) - b
        return 0.5 * float(r.dot(r)), (A.T @ A).dot(x) - A.T @ b


class TestDiagonalDesign:
    """A square diagonal design is applied as its diagonal: the products
    have the dense ones' bytes, bar the zero sign of an underflowed
    product, and L and mu come with no eigvalsh."""

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 200])
    def test_products_are_the_dense_bytes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            d = rng.choice(DIAGONAL, n)
            A, x, b = np.diag(d), rng.choice(POINT, n), rng.choice(POINT, n)
            value, gradient = dense_products(A, b, x)
            with np.errstate(over="ignore", invalid="ignore"):
                o = LeastSquaresOracle(A, b)
                assert o.gram.tobytes() == (A.T @ A).tobytes()
                assert o.value(x).hex() == value.hex()
                got = o.gradient(x)
            moved = got.view(np.uint64) != gradient.view(np.uint64)
            # only where g * x underflowed, against an Atb entry of 0
            g = d * d
            assert (g[moved] != 0).all() and (x[moved] != 0).all()
            assert (got[moved] == 0).all() and (o.Atb[moved] == 0).all()
            assert (gradient[moved] == 0).all()

    def test_an_underflowed_product_moves_no_step(self):
        # g_4 * x_4 = 0.09 * -5e-324 rounds to -0.0: OpenBLAS FMAs the last
        # term of a length-5 sum outside its vector loop and gives -0.0,
        # the diagonal path +0.0
        d = np.array([1.0, 0.3, 0.3, 1.0, 0.3])
        x = np.array([2.0, -1.0, 0.5, 3.0, -5e-324])
        b = np.array([1.0, 0.3, -0.3, 0.0, 0.0])
        A = np.diag(d)
        o = LeastSquaresOracle(A, b)
        value, gradient = dense_products(A, b, x)
        got = o.gradient(x)
        assert got[4] == 0.0 and not np.signbit(got[4]) and gradient[4] == 0.0
        assert got[:4].tobytes() == gradient[:4].tobytes()
        assert o.value(x).hex() == value.hex()
        for gamma in (1.0, 1.0 / o.lipschitz, 0.37, 1e300):
            assert (x - gamma * got).tobytes() == (
                x - gamma * gradient).tobytes()

    @pytest.mark.parametrize("n", [2, 7, 60, 200])
    def test_constants_are_eigvalsh_of_the_gram(self, n, count_spectra):
        rng = np.random.default_rng(n)
        for entries in ([1.0, 0.3], [1.0, 0.3, 0.0, -2.0, -0.0],
                        rng.uniform(-1e10, 1e10, 5), [1.0, 1e-10]):
            d = rng.choice(entries, n)
            o = LeastSquaresOracle(np.diag(d), rng.standard_normal(n))
            o.lipschitz
            assert count_spectra == []
            assert_exact_constants(o, np.diag(d))
            del count_spectra[:]

    @pytest.mark.parametrize("design", [
        np.vstack([np.diag([0.3, 1.0, 2.0, 1.0, 0.3]), np.zeros(5)]),
        np.diag([0.3, 1.0, 2.0, 1.0, 0.3]) + np.diag([0.0, 0.0, 1e-300], 2),
        np.diag([0.3, 1.0, 2.0, np.inf, 0.3]),
        np.diag([0.3, 1.0, 2.0, 1e200, 0.3]),  # its square overflows
        np.array([[0.3]]),  # a 1 x 1 product is a scalar one, with no sum
    ], ids=["rectangular", "off-diagonal", "inf", "square-overflow", "1x1"])
    def test_other_designs_keep_the_dense_products(self, design,
                                                   count_spectra):
        n = design.shape[1]
        # underflowing products, which come out -0.0 from the last term of
        # a 5-term BLAS sum and from numpy's 1 x 1 scalar product, where
        # the diagonal path would give +0.0
        x = np.array([-5e-324, 2.0, -0.0, 3.0, -5e-324])[-n:]
        b = np.zeros(design.shape[0])
        value, gradient = dense_products(design, b, x)
        with np.errstate(over="ignore", invalid="ignore"):
            o = LeastSquaresOracle(design, b)
            assert o.gram.tobytes() == (design.T @ design).tobytes()
            assert o.gradient(x).tobytes() == gradient.tobytes()
            assert repr(o.value(x)) == repr(value)
        # the class's own products run, with no per-call choice
        assert not {"_value", "_gradient"} & set(vars(o))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                o.lipschitz
            except np.linalg.LinAlgError:  # the inf design's nan Gram
                pass
        assert count_spectra == [n]

    def test_weighted_signal_designs_take_the_path(self, count_spectra):
        # w in {1, 0.3}, as segment-1d denoises, and a split: its blocks
        # are rectangular
        rng = np.random.default_rng(0)
        w = np.where(rng.random(200) < 0.5, 1.0, 0.3)
        o = LeastSquaresOracle(np.diag(w), w, components=4)
        assert (o.lipschitz, o.strong_convexity) == (1.0, 0.3 * 0.3)
        assert count_spectra == []
        o.components[0].lipschitz
        assert count_spectra == [200]


def _python(code):
    """stdout of code run in a fresh interpreter that imports this
    package."""
    src = os.path.dirname(os.path.dirname(proxident.__file__))
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    return done.stdout.splitlines()


# the names of the loaded scipy modules, as an expression
SCIPY_MODULES = "[m for m in sys.modules if m.split('.')[0] == 'scipy']"

DR_RUN = f"""
import sys
import proxident, proxident.cli, proxident.bundles
from proxident.problems import gen_lasso
from proxident.solvers import SolverConfig, run_dr
point, log = run_dr(gen_lasso(30, 12, seed=2), SolverConfig(max_iter=60))
print(log.status, len(log) > 1)
print({SCIPY_MODULES})
"""


class TestImportFootprint:
    """The package needs numpy alone: no run loads a scipy module."""

    @pytest.mark.parametrize("module", ["proxident", "proxident.cli",
                                        "proxident.bundles"])
    def test_import_leaves_scipy_linalg_out(self, module):
        assert _python(f"import sys, {module}\n"
                       f"print({SCIPY_MODULES})") == ["[]"]

    def test_dr_leaves_it_out(self):
        assert _python(DR_RUN) == ["converged True", "[]"]

    def test_solve_dr_leaves_it_out(self, tmp_path):
        bundle = str(tmp_path / "lasso")
        assert _python(
            "import sys\nfrom proxident.cli import main\n"
            f"main(['gen', 'lasso', '--m', '30', '--n', '12', '--out', "
            f"{bundle!r}])\n"
            f"print(main(['solve', 'dr', {bundle!r}]), {SCIPY_MODULES})"
        )[-1] == "0 []"


class TestProxF:
    def test_small_gamma_limit(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((10, 4))
        o = least_squares_oracle(A, rng.standard_normal(10))
        v = rng.standard_normal(4)
        assert np.linalg.norm(o.prox(v, 1e-8) - v) <= 1e-6

    def test_identity_halves(self):
        o = least_squares_oracle(np.eye(3), np.zeros(3))
        v = np.array([2.0, -4.0, 6.0])
        assert np.allclose(o.prox(v, 1.0), v / 2)

    def test_linear_system_residual(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((12, 5))
        o = least_squares_oracle(A, rng.standard_normal(12))
        v = rng.standard_normal(5)
        x = o.prox(v, 0.37)
        residual = x + 0.37 * (o.gram @ x) - (v + 0.37 * o.Atb)
        assert np.linalg.norm(residual) <= 1e-10


    def test_agrees_with_a_linear_solve(self):
        rng = np.random.default_rng(7)
        p = gen_qc_lasso(n=20, s=5, delta=0.5, seed=1)
        o = p.smooth
        for gamma in (1.0 / o.lipschitz, 0.37, 10.0):
            matrix = np.eye(20) + gamma * o.gram
            for v in rng.standard_normal((200, 20)):
                want = np.linalg.solve(matrix, v + gamma * o.Atb)
                got = o.prox(v, gamma)
                assert np.linalg.norm(got - want) <= (
                    1e-13 * np.linalg.norm(want))

    def test_non_finite_matrix_is_refused_as_cho_factor_refuses_it(self):
        A = np.ones((3, 2))
        A[1, 0] = np.nan
        with pytest.raises(ValueError,
                           match="array must not contain infs or NaNs"):
            least_squares_oracle(A, np.ones(3)).prox(np.ones(2), 0.5)

    def test_matrix_not_positive_definite_raises_linalg_error(self):
        # I + 2^60 * ones((2, 2)) rounds to 2^60 * ones((2, 2)), singular:
        # its Cholesky factor's second pivot is exactly 0
        o = least_squares_oracle(np.ones((1, 2)), np.ones(1))
        with pytest.raises(np.linalg.LinAlgError,
                           match="Matrix is not positive definite"):
            o.prox(np.ones(2), 2.0 ** 60)

    @pytest.mark.parametrize("gamma", [-1.0, -0.5, 0.0, -0.0, np.nan, np.inf,
                                       -np.inf])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        # at gamma = -0.5 the least-squares solve returned [5, -1] for
        # v = [3, 0], and the matrix one divided by zero at gamma = -1
        for oracle, v in (
                (least_squares_oracle(np.eye(2), np.ones(2)), [3.0, 0.0]),
                (matrix_ls_oracle(np.ones((2, 2))), np.ones((2, 2)))):
            with pytest.raises(ValueError,
                               match="gamma must be positive and finite"):
                oracle.prox(v, gamma)

    def test_non_finite_input_gives_a_non_finite_result(self):
        o = least_squares_oracle(np.eye(3), np.ones(3))
        x = o.prox(np.array([np.inf, 0.0, 1.0]), 0.5)
        assert not np.isfinite(x).all()


def _package_oracles(tmp_path):
    """(name, oracle) for every smooth term the package builds: the two
    builders with and without components or a mask, each component, and
    the terms of the generators' problems and of the bundles read back."""
    rng = np.random.default_rng(11)
    A, b = rng.standard_normal((6, 3)), rng.standard_normal(6)
    target = rng.standard_normal((4, 4))
    mask = (rng.random((4, 4)) < 0.5).astype(float)
    oracles = [
        ("least_squares", least_squares_oracle(A, b)),
        ("least_squares-3", least_squares_oracle(A, b, components=3)),
        ("matrix_ls", matrix_ls_oracle(target)),
        ("matrix_ls-mask", matrix_ls_oracle(target, mask)),
    ]
    for name, problem in (
        ("gen_lasso", gen_lasso(12, 5, seed=1, components=3)),
        ("gen_qc_lasso", gen_qc_lasso(n=6, s=2, delta=0.5, seed=1)),
        ("gen_lowrank", gen_lowrank_matrix_problem(size=4, rank=1, seed=1)),
    ):
        write_bundle(tmp_path / name, problem)
        oracles += [(name, problem.smooth),
                    (name + "-bundle", read_bundle(tmp_path / name).smooth)]
    return oracles + [(f"{name}-component", c) for name, o in oracles
                      for c in o.components or ()]


class TestSmoothContract:
    def test_package_oracles_inherit_value_and_gradient(self, tmp_path):
        # perfbench/tracing.py counts calls by wrapping SmoothOracle.value
        # and .gradient; an override would drop them from its counts
        oracles = _package_oracles(tmp_path)
        assert {name for name, _ in oracles} >= {
            "least_squares-3-component", "gen_lasso-bundle-component",
            "gen_lowrank-bundle"}
        for name, oracle in oracles:
            assert isinstance(oracle, SmoothOracle), name
            for method in ("value", "gradient"):
                assert getattr(type(oracle), method) is getattr(
                    SmoothOracle, method), (name, method)
                assert method not in vars(oracle), (name, method)

    def test_matrix_oracle_constants(self):
        o = matrix_ls_oracle(np.ones((2, 3)), np.array([[1.0, 0, 1]] * 2))
        assert (o.lipschitz, o.strong_convexity, o.components) == (
            1.0, 0.0, None)
        assert matrix_ls_oracle(np.ones((2, 3))).strong_convexity == 1.0


class TestMatrixOracle:
    def test_identity_map_basics(self):
        o = matrix_ls_oracle(np.zeros((3, 3)))
        assert np.array_equal(o.gradient(np.zeros((3, 3))), np.zeros((3, 3)))
        b = np.arange(9.0).reshape(3, 3)
        o2 = matrix_ls_oracle(b)
        assert o2.value(b) == 0.0 and np.allclose(o2.gradient(b), 0.0)

    def test_masked_gradient_finite_differences(self):
        rng = np.random.default_rng(7)
        mask = (rng.random((5, 4)) < 0.5).astype(float)
        o = matrix_ls_oracle(rng.standard_normal((5, 4)), mask)
        x = rng.standard_normal((5, 4))
        num = central_diff(o.value, x)
        assert np.max(np.abs(num - o.gradient(x))) <= 1e-6 * (
            1 + np.max(np.abs(num))
        )

    def test_masked_prox(self):
        rng = np.random.default_rng(8)
        mask = (rng.random((4, 4)) < 0.6).astype(float)
        target = rng.standard_normal((4, 4))
        o = matrix_ls_oracle(target, mask)
        v = rng.standard_normal((4, 4))
        x = o.prox(v, 0.9)
        # stationarity of 0.5*||mask*(x-B)||^2 + ||x-v||^2/(2*gamma)
        grad = mask * (x - target) + (x - v) / 0.9
        assert np.max(np.abs(grad)) <= 1e-12


class TestQCLasso:
    def test_certificate_interior(self):
        p = gen_qc_lasso(n=15, s=4, delta=0.4, seed=1)
        g = p.smooth.gradient(p.xstar)
        off = p.xstar == 0
        assert np.all(np.abs(g[off]) <= (1 - p.delta) * p.reg.lam + 1e-12)
        on = ~off
        assert np.allclose(g[on], -p.reg.lam * np.sign(p.xstar[on]), atol=1e-10)

    def test_fixed_point(self):
        p = gen_qc_lasso(n=15, s=4, delta=0.4, seed=2)
        res = prox_l1(p.ustar, p.cert_gamma, p.reg.lam)
        assert np.max(np.abs(res.point - p.xstar)) <= 1e-10
        assert res.pattern == pattern_of(p.xstar, p.reg.collection)

    def test_exact_support_size(self):
        p = gen_qc_lasso(n=15, s=4, delta=0.4, seed=3)
        assert np.count_nonzero(p.xstar) == 4

    def test_degenerate_boundary(self):
        p = gen_qc_lasso(n=10, s=2, delta=0.3, seed=4, degenerate=True)
        g = p.smooth.gradient(p.xstar)
        off = np.flatnonzero(p.xstar == 0)
        step = p.cert_gamma * p.reg.lam
        # one off-support pre-image sits exactly on the threshold
        assert np.min(np.abs(np.abs(p.ustar[off]) - step)) <= 1e-10

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_qc_lasso(n=10, s=11, delta=0.5, seed=0)
        with pytest.raises(ValueError):
            gen_qc_lasso(n=10, s=2, delta=1.5, seed=0)
        with pytest.raises(ValueError):
            gen_qc_lasso(n=10, s=2, delta=0.5, seed=0, m=5)


class TestLowRank:
    def test_wellposed_expected_rank(self):
        p = gen_lowrank_matrix_problem(seed=9)
        assert p.meta["expected_rank"] == 4
        s = np.linalg.svd(p.xstar, compute_uv=False)
        assert np.sum(s > 1e-10) == 4

    def test_degenerate_rank_at_least_planted(self):
        p = gen_lowrank_matrix_problem(seed=9, degenerate=True)
        assert p.meta["expected_rank"] >= 4

    def test_certificate(self):
        p = gen_lowrank_matrix_problem(seed=10)
        u = p.xstar - p.cert_gamma * p.smooth.gradient(p.xstar)
        assert np.allclose(u, p.ustar, atol=1e-12)

    def test_seed_determinism(self):
        a = gen_lowrank_matrix_problem(seed=11)
        b = gen_lowrank_matrix_problem(seed=11)
        assert np.array_equal(a.smooth.target, b.smooth.target)
        assert np.array_equal(a.xstar, b.xstar)

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            gen_lowrank_matrix_problem(size=5, rank=6)


class TestGenLasso:
    def test_determinism_and_shapes(self):
        a = gen_lasso(30, 12, seed=5)
        b = gen_lasso(30, 12, seed=5)
        assert np.array_equal(a.smooth.A, b.smooth.A)
        assert np.array_equal(a.smooth.b, b.smooth.b)
        assert a.reg.lam == b.reg.lam
        assert len(a.smooth.components) == 10


def _no_draw(*args, **kwargs):
    raise AssertionError("a generator drew before checking its arguments")


@pytest.mark.parametrize("generate", [
    lambda lam: gen_lasso(10, 5, seed=1, lam=lam),
    lambda lam: gen_qc_lasso(8, s=2, delta=0.5, seed=1, lam=lam),
    lambda lam: gen_lowrank_matrix_problem(6, 2, seed=1, lam=lam),
], ids=["lasso", "qc-lasso", "lowrank"])
@pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
def test_generators_check_lam_before_any_draw(monkeypatch, generate, lam):
    monkeypatch.setattr(np.random, "default_rng", _no_draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=f"lam must be positive and finite, got "
                                 f"{lam!r}"):
            generate(lam)


@pytest.mark.parametrize("generate,message", [
    (lambda: gen_lowrank_matrix_problem(size=5.5, rank=2),
     "size must be an integer, got 5.5"),
    (lambda: gen_lowrank_matrix_problem(size=True, rank=True),
     "size must be an integer, got True"),
    (lambda: gen_lowrank_matrix_problem(size=6, rank=2.0),
     "rank must be an integer, got 2.0"),
    (lambda: gen_lowrank_matrix_problem(6, 2, seed=-1),
     "seed must be >= 0, got seed=-1"),
    (lambda: gen_qc_lasso(8, s=2.5, delta=0.5, seed=1),
     "s must be an integer, got 2.5"),
    (lambda: gen_qc_lasso(8.0, s=2, delta=0.5, seed=1),
     "n must be an integer, got 8.0"),
    (lambda: gen_qc_lasso(8, s=2, delta=0.5, seed=1, m=12.5),
     "m must be an integer, got 12.5"),
    (lambda: gen_qc_lasso(8, s=2, delta=0.5, seed=1, components=0),
     "components must be >= 1, got components=0"),
    (lambda: gen_qc_lasso(8, s=2, delta=0.5, seed=1.5),
     "seed must be an integer, got 1.5"),
    (lambda: gen_lasso(10.5, 5, seed=1), "m must be an integer, got 10.5"),
    (lambda: gen_lasso(10, 0, seed=1), "n must be >= 1, got n=0"),
    (lambda: gen_lasso(10, 5, seed=1, components=-2),
     "components must be >= 1, got components=-2"),
    (lambda: gen_lasso(10, 5, seed=True), "seed must be an integer, got True"),
    (lambda: gen_lasso(10, 5, seed=-3), "seed must be >= 0, got seed=-3"),
], ids=["lowrank-size", "lowrank-bools", "lowrank-rank", "lowrank-seed",
        "qc-s", "qc-n", "qc-m", "qc-components", "qc-seed", "lasso-m",
        "lasso-n", "lasso-components", "lasso-bool-seed", "lasso-seed"])
def test_generators_check_integers_before_any_draw(monkeypatch, generate,
                                                   message):
    draws = []
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=message):
        generate()
    assert draws == []
