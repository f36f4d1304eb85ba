"""Composite problems: smooth oracles, finite sums, and seeded generators.

A composite problem is min f(x) + g(x) with f smooth, a ``SmoothOracle``
subclass (least squares or masked matrix least squares here), and g a
structure-inducing regularizer from the prox catalog. Generators can attach
a certified optimal pair (xstar, ustar) so that identification claims can
be checked against ground truth.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .manifolds import _integer
from .prox import Regularizer, _check_gamma, _check_lam, prox_nuclear

__all__ = [
    "SmoothOracle",
    "LeastSquaresOracle",
    "MatrixLSOracle",
    "CompositeProblem",
    "least_squares_oracle",
    "matrix_ls_oracle",
    "gen_lasso",
    "gen_qc_lasso",
    "gen_lowrank_matrix_problem",
]


class SmoothOracle:
    """Smooth term f: value, gradient, and the constants solvers need.

    The one contract for f: a subclass defines _value(x), _gradient(x) and
    lipschitz (the gradient's Lipschitz constant) and inherits value and
    gradient, which call them. It overrides the defaults strong_convexity
    = 0.0 and components = None when it has more (a list of oracles f^j
    with f = (1/m) * sum_j f^j), prox when it has one, and restricted_solve
    when it can minimise itself on a flat.
    """

    strong_convexity = 0.0
    components = None

    def value(self, x) -> float:
        return float(self._value(x))

    def gradient(self, x):
        return self._gradient(x)

    def prox(self, v, gamma):
        raise NotImplementedError("this smooth term has no proximal operator")

    def restricted_solve(self, reduce, c):
        """The z minimising f(B z) + c.z over the flat spanned by the
        columns of a basis B, given as reduce(M) = B^T M; None when f has
        no such solve, as here, or the minimiser is not unique."""
        return None

    @property
    def has_prox(self) -> bool:
        return type(self).prox is not SmoothOracle.prox


def _check_component_count(n_components, m):
    if not 1 <= _integer("components", n_components) <= m:
        raise ValueError(f"component count must be in 1..m, got "
                         f"components={n_components!r} with m={m}")


class LeastSquaresOracle(SmoothOracle):
    """f(x) = 0.5 * ||A x - b||^2 with cached Gram matrix.

    Both constants come from one np.linalg.eigvalsh of the Gram A^T A (for
    a dense design; a diagonal one's need none, see below), run on the
    first read of lipschitz or strong_convexity and cached: L is the
    top eigenvalue and mu the bottom one, or 0 when the bottom eigenvalue is
    at most n * eps * L with n the column count (numpy's matrix_rank cutoff
    for the Gram), so wide and rank-deficient designs have mu = 0.
    Construction computes no spectrum.

    With components=k the oracle is also the finite sum of k row blocks
    (see split); the blocks are built on the first read of components and
    cached. components=None (the default) means no finite-sum view.

    prox solves (I + gamma A^T A) x = v + gamma A^T b with the inverse
    of that matrix, built from its Cholesky factor once per gamma and
    cached, so a run's later iterations make one matrix-vector product.

    restricted_solve minimises f + c.z on a flat from the cached Gram and
    A^T b, for predictor-corrector's flat step.

    value and gradient take their products with ndarray.dot, not @: both
    make the same BLAS gemv and dot calls, with the same bytes, but dot
    skips the matmul ufunc's dispatch, which at n = 20 costs about as much
    as the product itself.

    A diagonal design is applied as its diagonal d, chosen once at
    construction when A is n x n with n >= 2, every off-diagonal entry is
    zero and every g_i = d_i * d_i is finite. Then gram is np.diag(g), with
    no matrix product; the value's residual is d * x - b and the gradient
    (g * x + 0.0) - Atb; and L and mu are the largest and the smallest g_i,
    with the same cutoff and no eigvalsh (which returns the g_i themselves
    unless LAPACK scales a matrix outside the normal range). Each dense
    product has one nonzero term an entry, so these give its bytes: the
    + 0.0 turns a -0.0 product into the +0.0 that the BLAS sum gives. One
    exception: where g_i * x_i underflows to zero, the sum (which uses FMA)
    may give -0.0. That zero reaches only a squared residual, or a gradient
    entry whose Atb entry is 0, where x_i - gamma * (+-0) is x_i, since an
    underflow needs x_i != 0; so no value byte and no step byte moves. A
    1 x 1 design stays dense: numpy multiplies it as a scalar, with no sum,
    so its -0.0 products stay -0.0. A, Atb, prox, restricted_solve and
    split keep their dense code; a block of split is a square diagonal only
    when it is the whole design (components=1).
    """

    def __init__(self, A, b, components=None):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise ValueError(f"shape mismatch: A {A.shape}, b {b.shape}")
        if components is not None:
            _check_component_count(components, A.shape[0])
        self.A = A
        self.b = b
        self.Atb = A.T @ b
        self._g = _diagonal_gram(A)
        if self._g is None:
            self.gram = A.T @ A
        else:
            self.gram = np.diag(self._g)
            self._value, self._gradient = _diagonal_products(
                A.diagonal().copy(), self._g, b, self.Atb)
        self._components = None
        self._n_components = components
        self._prox_cache = {}

    @functools.cached_property
    def _spectrum(self):
        """(L, mu) from the Gram's eigenvalues, computed on first read (a
        diagonal Gram's are its sorted diagonal)."""
        eigs = (np.linalg.eigvalsh(self.gram) if self._g is None
                else np.sort(self._g))
        top, bottom = float(eigs[-1]), float(eigs[0])
        cutoff = eigs.size * np.finfo(float).eps * top
        return top, bottom if bottom > cutoff else 0.0

    @property
    def lipschitz(self) -> float:
        return self._spectrum[0]

    @property
    def strong_convexity(self) -> float:
        return self._spectrum[1]

    @property
    def components(self):
        if self._components is None and self._n_components is not None:
            self._components = self.split(self._n_components)
        return self._components

    @property
    def component_count(self):
        """Number of finite-sum components (None without them), known
        without building the blocks."""
        return self._n_components

    def _value(self, x):
        r = self.A.dot(x) - self.b
        return 0.5 * float(r.dot(r))

    def _gradient(self, x):
        return self.gram.dot(x) - self.Atb

    def prox(self, v, gamma):
        """(I + gamma*gram)^{-1} (v + gamma*Atb), with the inverse kept for
        this gamma: C^-T C^-1 from the inverse of the Cholesky factor C,
        not np.linalg.inv of the matrix, whose bytes at n = 120 depend on
        the BLAS thread count. gamma must be positive and finite (a
        ValueError otherwise); a non-finite matrix raises numpy's
        ValueError and one not positive definite in floating point (such
        as I + gamma*gram for a huge gamma and a singular gram) LinAlgError.
        v is not checked, so a non-finite v gives a non-finite result."""
        _check_gamma(gamma)
        key = float(gamma)
        inverse = self._prox_cache.get(key)
        if inverse is None:
            a = np.eye(self.gram.shape[0]) + key * self.gram
            c_inv = np.linalg.inv(np.linalg.cholesky(np.asarray_chkfinite(a)))
            inverse = self._prox_cache[key] = c_inv.T @ c_inv
        return inverse.dot(v + gamma * self.Atb)

    def restricted_solve(self, reduce, c):
        """The z solving B^T G B z = B^T A^T b - c, with G the cached Gram
        and reduce(M) = B^T M: the minimiser of f(B z) + c.z. None when the
        system is singular: B has more columns than A has rows, or
        np.linalg.solve finds it singular or returns a non-finite z."""
        rhs = reduce(self.Atb) - c
        if rhs.size > self.A.shape[0]:
            return None
        try:
            z = np.linalg.solve(reduce(reduce(self.gram).T), rhs)
        except np.linalg.LinAlgError:
            return None
        return z if np.isfinite(z).all() else None

    def split(self, n_components):
        """Row-partition into k blocks f^j with f = (1/k) sum_j f^j.

        Each block is itself a least-squares oracle on sqrt(k)-scaled data so
        that averaging the components reproduces f exactly. The blocks are
        built here with their Grams; like any LeastSquaresOracle, each
        computes its own L and mu from its Gram's spectrum on first read.
        """
        m = self.A.shape[0]
        _check_component_count(n_components, m)
        scale = np.sqrt(n_components)
        rows = np.array_split(np.arange(m), n_components)
        return [
            LeastSquaresOracle(scale * self.A[idx], scale * self.b[idx])
            for idx in rows
        ]


def _diagonal_gram(A):
    """d * d for the diagonal d of A when A is n x n with n >= 2, every
    off-diagonal entry zero and every d_i * d_i finite; None otherwise."""
    n = A.shape[0]
    if A.shape[1] != n or n < 2:
        return None
    d = A.diagonal()
    if np.count_nonzero(A) != np.count_nonzero(d):  # a nan counts as nonzero
        return None
    with np.errstate(over="ignore"):
        g = d * d
    return g if np.isfinite(g).all() else None


def _diagonal_products(d, g, b, Atb):
    """(value, gradient) of 0.5 * ||d * x - b||^2 with g = d * d and
    Atb = A^T b: LeastSquaresOracle's _value and _gradient for the design
    diag(d), chosen once at construction."""

    def value(x):
        r = d * x - b
        return 0.5 * float(r.dot(r))

    def gradient(x):
        return (g * x + 0.0) - Atb

    return value, gradient


def least_squares_oracle(A, b, components=None) -> LeastSquaresOracle:
    """Least-squares smooth term, optionally with row-partitioned components.

    Nothing spectral is computed here: L and mu come from the Gram's
    spectrum on the first read of either (see LeastSquaresOracle), and the
    components (when a count is given) are built on their first read. A
    component count outside 1..m raises ValueError here.
    """
    return LeastSquaresOracle(A, b, components)


class MatrixLSOracle(SmoothOracle):
    """f(X) = 0.5 * ||mask * (X - target)||_F^2 (identity map when mask=None).

    The mask is entrywise 0/1; unobserved entries do not contribute. The
    gradient Lipschitz constant is 1 (0/1 mask); strong convexity is 1 for
    the identity map and 0 otherwise.
    """

    lipschitz = 1.0

    def __init__(self, target, mask=None):
        target = np.asarray(target, dtype=float)
        if target.ndim != 2:
            raise ValueError("target must be a matrix")
        if mask is not None:
            mask = np.asarray(mask, dtype=float)
            if mask.shape != target.shape:
                raise ValueError(
                    f"mask shape {mask.shape} != target shape {target.shape}"
                )
            if not np.all((mask == 0) | (mask == 1)):
                raise ValueError("mask entries must be 0 or 1")
        self.target = target
        self.mask = mask
        full = mask is None or bool(np.all(mask == 1))
        self.strong_convexity = 1.0 if full else 0.0

    def _residual(self, x):
        r = x - self.target
        if self.mask is not None:
            r = self.mask * r
        return r

    def _value(self, x):
        # np.add.reduce(., None) is the reduction np.sum runs, without its
        # wrapper
        r = self._residual(x)
        return 0.5 * float(np.add.reduce(r * r, None))

    def _gradient(self, x):
        return self._residual(x)

    def prox(self, v, gamma):
        _check_gamma(gamma)
        m = 1.0 if self.mask is None else self.mask
        return (v + gamma * m * self.target) / (1.0 + gamma * m)


def matrix_ls_oracle(target, mask=None) -> MatrixLSOracle:
    return MatrixLSOracle(target, mask)


@dataclass
class CompositeProblem:
    """min f(x) + g(x), optionally with a certified optimal pair.

    When ground truth is present, xstar = prox_{cert_gamma * g}(ustar) with
    ustar = xstar - cert_gamma * grad f(xstar), and delta records the
    interiority margin of the generator's dual certificate.
    """

    smooth: SmoothOracle
    reg: Regularizer
    xstar: np.ndarray | None = None
    ustar: np.ndarray | None = None
    cert_gamma: float | None = None
    delta: float | None = None
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def objective(self, x) -> float:
        return self.smooth.value(x) + self.reg.value(x)

    def zero_point(self) -> np.ndarray:
        return np.zeros(self.reg.collection.ambient)

    @property
    def has_ground_truth(self) -> bool:
        return self.xstar is not None and self.ustar is not None


def gen_lasso(m, n, seed, density=0.1, noise=0.1, lam=None, components=10):
    """Random lasso instance: Gaussian design, sparse planted signal.

    lam defaults to 0.1 * ||A^T b||_inf. components row-partitions the rows
    for the finite-sum solvers (clipped to m). m, n and components must be
    integers >= 1, seed an integer >= 0, density in (0, 1] and noise finite
    and nonnegative; every argument is checked before the first draw.
    """
    if lam is not None:
        _check_lam(lam)
    _integer("m", m, 1)
    _integer("n", n, 1)
    _integer("components", components, 1)
    _integer("seed", seed, 0)
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density!r}")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    s = max(1, int(round(density * n)))
    support = rng.choice(n, size=s, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.uniform(1.0, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    b = A @ x_true + noise * rng.standard_normal(m)
    if lam is None:
        lam = 0.1 * float(np.abs(A.T @ b).max())
    oracle = LeastSquaresOracle(A, b, components=min(components, m))
    return CompositeProblem(
        smooth=oracle,
        reg=Regularizer.l1(n, lam),
        seed=int(seed),
        meta={"kind": "lasso"},
    )


def gen_qc_lasso(n, s, delta, seed, m=None, lam=1.0, components=10,
                 degenerate=False):
    """Lasso instance with a certified solution of exact support size s.

    The solution xstar is planted (signs and magnitudes in [1, 2]); the
    right-hand side is chosen so that -grad f(xstar) equals lam * sign on the
    support and stays inside (1 - delta) * lam off the support, which makes
    the support stable over a computable ball around ustar. With
    degenerate=True one off-support certificate entry is forced exactly onto
    the boundary, so no stability margin exists.

    Requires m >= n (unique minimizer through a full-column-rank design).
    The sizes, components and seed are integers, checked with every other
    argument before the first draw.
    """
    _check_lam(lam)
    _integer("n", n, 1)
    m = _integer("m", 2 * n if m is None else m, 1)
    _integer("s", s)
    _integer("components", components, 1)
    _integer("seed", seed, 0)
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if s > min(m, n) or s < 1:
        raise ValueError("support size must be in 1..min(m, n)")
    if m < n:
        raise ValueError("need m >= n so the minimizer is unique")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    support = np.sort(rng.choice(n, size=s, replace=False))
    xstar = np.zeros(n)
    xstar[support] = rng.uniform(1.0, 2.0, size=s) * rng.choice(
        [-1.0, 1.0], size=s
    )
    # target value of -grad f(xstar): lam*sign on the support, strictly
    # interior off it
    v = np.zeros(n)
    v[support] = lam * np.sign(xstar[support])
    off = np.setdiff1d(np.arange(n), support)
    v[off] = (1.0 - delta) * lam * rng.uniform(-1.0, 1.0, size=off.size)
    if degenerate and off.size:
        v[off[0]] = lam
    # least-norm residual r with A^T r = -v, then b = A xstar - r
    r = -A @ np.linalg.solve(A.T @ A, v)
    b = A @ xstar - r
    oracle = LeastSquaresOracle(A, b, components=min(components, m))
    gamma = 1.0 / oracle.lipschitz
    ustar = xstar - gamma * oracle.gradient(xstar)
    return CompositeProblem(
        smooth=oracle,
        reg=Regularizer.l1(n, lam),
        xstar=xstar,
        ustar=ustar,
        cert_gamma=gamma,
        delta=float(delta),
        seed=int(seed),
        meta={"kind": "qc-lasso", "degenerate": degenerate},
    )


def gen_lowrank_matrix_problem(size=20, rank=4, degenerate=False, seed=0,
                               lam=1.0):
    """Nuclear-norm-regularized matrix denoising with a known-rank solution.

    The target B has orthogonally invariant factors with leading singular
    values well above lam (they survive the shrinkage) and a tail well below
    (it is removed), so the minimizer prox_{lam*||.||_*}(B) has exactly the
    requested rank. The degenerate variant instead places four tail values in
    a narrow band straddling lam, so the optimal rank is >= the planted one
    and membership of each near-threshold value is decided by a hair.
    size, rank and seed are integers, checked before the first draw.
    """
    _check_lam(lam)
    _integer("size", size, 1)
    _integer("rank", rank)
    _integer("seed", seed, 0)
    if not 0 <= rank <= size:
        raise ValueError(f"rank must be in 0..size={size}, got {rank!r}")
    rng = np.random.default_rng(seed)
    qu, _ = np.linalg.qr(rng.standard_normal((size, size)))
    qv, _ = np.linalg.qr(rng.standard_normal((size, size)))
    sigma = np.zeros(size)
    sigma[:rank] = lam * rng.uniform(2.0, 4.0, size=rank)
    tail = size - rank
    if degenerate:
        near = min(4, tail)
        sigma[rank:rank + near] = lam * rng.uniform(0.95, 1.05, size=near)
        sigma[rank + near:] = lam * rng.uniform(0.1, 0.5, size=tail - near)
    else:
        sigma[rank:] = lam * rng.uniform(0.1, 0.5, size=tail)
    sigma = np.sort(sigma)[::-1]
    target = (qu * sigma) @ qv.T
    oracle = MatrixLSOracle(target)
    reg = Regularizer.nuclear(size, size, lam)
    # gamma = 1 makes the problem's minimizer exactly prox_{lam*||.||_*}(B)
    xres = prox_nuclear(target, 1.0, lam)
    expected_rank = int(np.sum(sigma > lam))
    return CompositeProblem(
        smooth=oracle,
        reg=reg,
        xstar=xres.point,
        ustar=target.copy(),
        cert_gamma=1.0,
        seed=int(seed),
        meta={
            "kind": "lowrank",
            "rank": rank,
            "expected_rank": expected_rank,
            "degenerate": degenerate,
        },
    )
