"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the algorithms under test: the TV oracle enumerates
segmentations and jump signs and solves the stationarity system in closed
form; the Potts oracle enumerates all 2^(n-1) breakpoint masks.
``CallableSmooth`` is the tests' smooth term built from two callables.
``matrix_ls_residual_reference`` and ``matrix_ls_prox_reference`` are the
masked matrix term's residual and prox as written out before it became a
diagonal least-squares term.
``prox_optimality_residual`` is acceptance criterion 1's checker: the
distance of a convex prox's output from its optimality condition.
``estimate_projection_diagonal`` is the exception: it draws through random
subspace descent's own update, so that its estimate checks the solver's rule.
"""

import numpy as np

from proxident.exploit import _subspace_update
from proxident.identification import IdentificationReport
from proxident.manifolds import SparsityPattern
from proxident.problems import SmoothOracle
from proxident.prox import ProxResult, Regularizer, _check_input
from proxident.solvers import TRACE_COLUMNS


class CallableSmooth(SmoothOracle):
    """A smooth term from value and gradient callables and its constants."""

    def __init__(self, value, gradient, lipschitz, strong_convexity=0.0,
                 components=None):
        self._value = value
        self._gradient = gradient
        self.lipschitz = float(lipschitz)
        self.strong_convexity = float(strong_convexity)
        self.components = components


def matrix_ls_residual_reference(x, target, mask=None):
    """mask * (x - target), or x - target without a mask: the gradient of
    0.5 * ||mask * (x - target)||_F^2 for a 0/1 mask."""
    r = x - target
    return r if mask is None else mask * r


def matrix_ls_prox_reference(v, gamma, target, mask=None):
    """(v + gamma * mask * target) / (1 + gamma * mask), with mask 1 when
    there is none: the prox of 0.5 * ||mask * (x - target)||_F^2."""
    m = 1.0 if mask is None else mask
    return (v + gamma * m * target) / (1.0 + gamma * m)


def tv1d_bruteforce(u, step):
    """Exact TV prox for small n by first-order-condition enumeration.

    For a fixed split into consecutive segments with jump signs sig_k
    (sig_0 = sig_K = 0), stationarity of

        step * sum |mu_{k+1} - mu_k| + 0.5 * ||x - u||^2

    gives mu_k = mean_k + step * (sig_k - sig_{k-1}) / len_k. A candidate is
    consistent when the realized jumps match the assumed signs; the unique
    minimizer is the best consistent candidate.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    best_x, best_obj = None, np.inf
    for mask in range(2 ** (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        lens = np.diff(bounds).astype(float)
        means = np.array([u[a:b].mean() for a, b in zip(bounds, bounds[1:])])
        K = len(lens)
        if K == 1:
            candidates = means[None, :]
        else:
            codes = np.arange(2 ** (K - 1))[:, None]
            signs = np.where(codes >> np.arange(K - 1) & 1, 1.0, -1.0)
            sig = np.zeros((signs.shape[0], K + 1))
            sig[:, 1:K] = signs
            mu = means + step * (sig[:, 1:] - sig[:, :-1]) / lens
            ok = np.all(np.diff(mu, axis=1) * signs > 0, axis=1)
            if not ok.any():
                continue
            candidates = mu[ok]
        xs = np.repeat(candidates, lens.astype(int), axis=1)
        objs = step * np.abs(np.diff(candidates, axis=1)).sum(axis=1) + (
            0.5 * np.sum((xs - u) ** 2, axis=1)
        )
        i = int(np.argmin(objs))
        if objs[i] < best_obj:
            best_obj, best_x = float(objs[i]), xs[i]
    return best_x


def potts1d_bruteforce(u, step):
    """Exact Potts prox for small n by exhausting breakpoint masks.

    Jump count is taken on the realized values (adjacent segments with equal
    means merge); ties prefer fewer jumps.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    best_x, best_key = None, (np.inf, np.inf)
    for mask in range(2 ** (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        x = np.concatenate(
            [np.full(b - a, u[a:b].mean()) for a, b in zip(bounds, bounds[1:])]
        )
        jumps = int(np.count_nonzero(np.diff(x)))
        obj = step * jumps + 0.5 * np.sum((x - u) ** 2)
        if (obj, jumps) < best_key:
            best_key, best_x = (obj, jumps), x
    return best_x


def tv1d_segments_reference(y, step):
    """The numpy-scalar taut string that ``prox._tv1d_segments`` replaced,
    kept to pin its bytes: segments (start, end, value), end exclusive."""
    n = y.size
    r = np.cumsum(y)
    segs = []
    a = 0  # anchor: string position, value s_a
    s_a = 0.0
    while a < n:
        m_hi = np.inf
        m_lo = -np.inf
        k_hi = k_lo = a
        j = a + 1
        while True:
            if j == n:
                up = lo = (r[n - 1] - s_a) / (j - a)
            else:
                up = (r[j - 1] + step - s_a) / (j - a)
                lo = (r[j - 1] - step - s_a) / (j - a)
            if lo > m_hi:
                segs.append((a, k_hi, m_hi))
                s_a = r[k_hi - 1] + step
                a = k_hi
                break
            if up < m_lo:
                segs.append((a, k_lo, m_lo))
                s_a = r[k_lo - 1] - step
                a = k_lo
                break
            if up <= m_hi:
                m_hi, k_hi = up, j
            if lo >= m_lo:
                m_lo, k_lo = lo, j
            if j == n:
                segs.append((a, n, up))
                a = n
                break
            j += 1
    return segs


def potts_dp_reference(y, step):
    """(back, unique) of the fancy-indexing Potts DP that
    ``prox._potts_segments`` replaced: back[r] is the last breakpoint it
    chose for the right end r (ties prefer fewer segments, then the first
    breakpoint), and unique says that every row's least total was taken
    at one breakpoint only."""
    n = y.size
    c1 = np.concatenate(([0.0], np.cumsum(y)))
    c2 = np.concatenate(([0.0], np.cumsum(y * y)))
    best = np.empty(n + 1)
    best[0] = 0.0
    nseg = np.zeros(n + 1, dtype=np.int64)
    back = np.zeros(n + 1, dtype=np.int64)
    unique = True
    for r in range(1, n + 1):
        ls = np.arange(r)
        length = r - ls
        seg_cost = 0.5 * ((c2[r] - c2[ls]) - (c1[r] - c1[ls]) ** 2 / length)
        total = best[:r] + seg_cost + step * (ls > 0)
        tied = np.flatnonzero(total == total.min())
        unique = unique and tied.size == 1
        l = tied[np.argmin(nseg[tied])]
        best[r] = total[l]
        nseg[r] = nseg[l] + 1
        back[r] = l
    return back.tolist(), unique


def potts_segments_reference(y, step):
    """The segments of potts_dp_reference's choices, kept to pin the bytes
    of ``prox._potts_segments``."""
    n = y.size
    c1 = np.concatenate(([0.0], np.cumsum(y)))
    back, _ = potts_dp_reference(y, step)
    segs = []
    r = n
    while r > 0:
        l = int(back[r])
        segs.append((l, r, (c1[r] - c1[l]) / (r - l)))
        r = l
    segs.reverse()
    return segs


def segments_to_result_reference(segs, n):
    """The per-segment slice loop that ``prox._segments_to_point`` and
    ``prox._jump_pattern`` replaced: the output point and its
    adjacent-equality pattern."""
    x = np.empty(n)
    bits = np.ones(n - 1, dtype=np.uint8)
    for start, end, value in segs:
        x[start:end] = value
        bits[start:end - 1] = 0
    bits[x[1:] == x[:-1]] = 0
    return x, SparsityPattern(bits)


def _set_index(collection, i):
    """Set i's index: the coordinate of x_i = 0 or the right end i + 1 of
    x_{i+1} = x_i."""
    return i + 1 if collection.kind == "adjacent_equal" else i


def pattern_of_reference(point, collection):
    """Per-set loop implementation of ``manifolds.pattern_of``."""
    point = collection._check_point(point)
    bits = np.ones(len(collection), dtype=np.uint8)
    for i in range(len(collection)):
        index = _set_index(collection, i)
        if collection.kind == "coordinate_zero":
            value = point[index]
        else:
            with np.errstate(invalid="ignore"):
                value = point[index] - point[index - 1]
        if value == 0.0:
            bits[i] = 0
    return SparsityPattern(bits)


def project_reference(collection, indices, point):
    """Loop implementation of ``manifolds.project``, kept to pin its bytes.

    Chains of selected adjacent equalities are resolved coordinate by
    coordinate, and each group is replaced by ``point[members].mean()``.
    """
    point = collection._check_point(point)
    indices = sorted(set(int(i) for i in indices))
    for i in indices:
        if not 0 <= i < len(collection):
            raise ValueError(f"spec index {i} out of range")

    n = point.size
    group = np.arange(n)
    for i in indices:
        index = _set_index(collection, i)
        if collection.kind == "adjacent_equal":
            group[index] = group[index - 1]
    # group ids are "leftmost member" and nondecreasing, so one pass suffices
    for j in range(1, n):
        group[j] = group[group[j]]
    zeroed = set()
    for i in indices:
        index = _set_index(collection, i)
        if collection.kind == "coordinate_zero":
            zeroed.add(group[index])
    out = np.empty(n)
    for g in np.unique(group):
        members = group == g
        out[members] = 0.0 if g in zeroed else point[members].mean()
    return out


def prox_l1_reference(u, gamma, lam=1.0):
    """Soft thresholding as ``prox_l1`` once computed it, with np.where and
    np.sign: (point, keep mask, value)."""
    u = np.asarray(u, dtype=float)
    t = gamma * lam
    keep = np.abs(u) > t
    x = np.where(keep, u - t * np.sign(u), 0.0)
    return x, keep, lam * float(np.abs(x).sum())


def _rank_pattern(rows, cols, rank):
    bits = np.ones(min(rows, cols) + 1, dtype=bool)
    bits[rank] = False
    return SparsityPattern(bits)


def prox_nuclear_reference(u, gamma, lam=1.0) -> ProxResult:
    """``prox_nuclear`` as it once stood, with its own soft threshold of
    the singular values and rank pattern."""
    u = _check_input(u, gamma, lam)
    if u.ndim != 2:
        raise ValueError("nuclear prox expects a matrix")
    w, s, vt = np.linalg.svd(u, full_matrices=False)
    t = gamma * lam
    kept = s > t
    s_new = np.where(kept, s - t, 0.0)
    x = (w * s_new) @ vt
    return ProxResult(x, _rank_pattern(*u.shape, rank=int(kept.sum())),
                      lam * float(s_new.sum()))


def prox_rank_reference(u, gamma, lam=1.0) -> ProxResult:
    """``prox_rank`` as it once stood, with its own hard threshold of the
    singular values and rank pattern."""
    u = _check_input(u, gamma, lam)
    if u.ndim != 2:
        raise ValueError("rank prox expects a matrix")
    w, s, vt = np.linalg.svd(u, full_matrices=False)
    thr = np.sqrt(2.0 * gamma * lam)
    kept = s > thr
    s_new = np.where(kept, s, 0.0)
    x = (w * s_new) @ vt
    rank = int(kept.sum())
    return ProxResult(x, _rank_pattern(*u.shape, rank=rank),
                      lam * float(rank))


# Criterion 1's checker: the prox optimality residual of the convex kinds.
CONVEX_KINDS = ("l1", "tv1d", "nuclear")


def _abs_subgradient_gap(x, g, lam):
    """Distance of each g_i from lam times the subdifferential of |.| at x_i:
    |g_i - lam*sign(x_i)| where x_i != 0, (|g_i| - lam)_+ where x_i = 0."""
    return np.where(x != 0.0, np.abs(g - lam * np.sign(x)),
                    np.maximum(np.abs(g) - lam, 0.0))


def prox_optimality_residual(reg: Regularizer, u, gamma, x) -> float:
    """Distance of -(x - u)/gamma from the subdifferential of g at x.

    Zero (up to roundoff) exactly when x = prox_{gamma*g}(u). Only defined
    for the convex kinds; the subdifferential structure used is:

    * l1: +-lam on nonzero coordinates, [-lam, lam] on zeros.
    * tv1d: lam * D^T v with v_i in sign([Dx]_i) (interval at zero jumps);
      v is recovered by prefix sums, and the component of the target outside
      range(D^T) (its mean) is charged to the residual.
    * nuclear: lam * (U V^T + W) with W orthogonal to the row/column spaces
      and spectral norm at most lam.
    """
    if reg.kind not in CONVEX_KINDS:
        raise ValueError(f"residual undefined for nonconvex kind {reg.kind!r}")
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = reg.lam
    grad = (u - x) / gamma  # must lie in the subdifferential of g at x

    if reg.kind == "l1":
        return float(np.linalg.norm(_abs_subgradient_gap(x, grad, lam)))

    if reg.kind == "tv1d":
        n = x.size
        mean_defect = abs(grad.sum()) / np.sqrt(n)
        v = -np.cumsum(grad)[:-1] / lam
        err = _abs_subgradient_gap(np.diff(x), v, 1.0)
        return float(np.hypot(mean_defect, lam * np.linalg.norm(err)))

    # nuclear
    w, s, vt = np.linalg.svd(x, full_matrices=False)
    r = int(np.sum(s > 1e-12 * (s[0] if s.size else 0.0)))
    wr, vtr = w[:, :r], vt[:r, :]
    outer = (grad - wr @ (wr.T @ grad)) @ (np.eye(x.shape[1]) - vtr.T @ vtr)
    inner = grad - outer
    tangential = np.linalg.norm(inner - lam * (wr @ vtr))
    sig = np.linalg.svd(outer, compute_uv=False)
    excess = np.linalg.norm(np.maximum(sig - lam, 0.0))
    return float(np.hypot(tangential, excess))


def svd_fixed_signs_reference(a):
    """SVD whose largest-magnitude entry of each left singular vector is
    made nonnegative, column by column: the sign convention the nuclear and
    rank proxes once applied. Their outputs are pinned to the same
    computation on these vectors, which shows the convention never reached
    an output."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
            vt[j, :] = -vt[j, :]
    return u, s, vt


def write_matrix_reference(path, arr):
    """The per-value ``bundles.write_matrix``, kept to pin its bytes."""
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def _same_bits(a, b):
    """Pattern equality as ``SparsityPattern.__eq__`` once computed it."""
    return a.bits.size == b.bits.size and bool(np.all(a.bits == b.bits))


def analyze_trace_reference(trace):
    """The two-loop ``identification.analyze_trace``: adjacent changes
    counted forward, then the stable suffix found by a backward walk that
    compares each pattern with the last one."""
    patterns, counts = [], []
    for item in trace:
        if isinstance(item, SparsityPattern):
            patterns.append(item)
            counts.append(item.count_ones())
        else:
            patterns.append(item.pattern)
            counts.append(item.nnz)
    if not patterns:
        raise ValueError("empty trace")
    oscillations = sum(
        1 for a, b in zip(patterns, patterns[1:]) if not _same_bits(a, b)
    )
    stable = len(patterns) - 1
    while stable > 0 and _same_bits(patterns[stable - 1], patterns[-1]):
        stable -= 1
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    return IdentificationReport(
        first_stable_iter=stable,
        pattern_final=patterns[-1],
        monotone=monotone,
        oscillation_count=oscillations,
    )


def trace_csv_text_reference(trace):
    """``solvers.trace_csv_text`` packing every row's pattern afresh."""
    def fmt(v):
        return repr(float(v))

    extras = bool(trace) and (
        trace[0].accel_active is not None or trace[0].enforced_count is not None
    )
    lines = [TRACE_COLUMNS + (",accel_active,enforced_count" if extras else "")]
    for r in trace:
        row = (
            f"{r.k},{fmt(r.objective)},{r.nnz},{r.pattern.packed_hex()},"
            f"{fmt(r.u_step)},{r.comm_coords},{fmt(r.wallclock)}"
        )
        if extras:
            row += f",{0 if r.accel_active is None else r.accel_active}"
            row += f",{0 if r.enforced_count is None else r.enforced_count}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def flat_basis_reference(kind, bits):
    """The dense basis B of a pattern's flat: one column per kept
    coordinate (coordinate collections) or per segment (adjacent-equality
    collections, a column of ones on the segment's coordinates)."""
    bits = np.asarray(bits)
    if kind == "coordinate_zero":
        return np.eye(bits.size)[:, bits == 1]
    n = bits.size + 1
    columns = []
    start = 0
    for i in range(n):
        if i == n - 1 or bits[i] == 1:  # the segment ends at i
            column = np.zeros(n)
            column[start:i + 1] = 1.0
            columns.append(column)
            start = i + 1
    return np.array(columns).T


def flat_point_reference(reg, gram, Atb, pattern, x):
    """The minimiser of 0.5 ||A y - b||^2 + g(y) on the flat of pattern
    through x, for y = B z: B z with z solving B^T G B z = B^T Atb - c.
    c is g's linear part on the flat at x's signs: lam * sign(x_S) for l1,
    lam * (sig_{k-1} - sig_k) over the jump signs sig of x's segment
    values for tv1d (sig_0 = sig_K = 0), and 0 for l0 and potts1d.
    Returns (B z, whether the signs that built c hold at z)."""
    B = flat_basis_reference(reg.collection.kind, pattern.bits)
    # a column's first coordinate is a coordinate of its flat value
    v = np.array([x[np.flatnonzero(col)[0]] for col in B.T])
    K = v.size
    c = np.zeros(K)
    signs_hold = True
    if reg.kind == "l1":
        c = reg.lam * np.sign(v)
    if reg.kind == "tv1d":
        sig = np.zeros(K + 1)
        for j in range(1, K):
            sig[j] = np.sign(v[j] - v[j - 1])
        for k in range(K):
            c[k] = reg.lam * (sig[k] - sig[k + 1])
    z = np.linalg.solve(B.T @ gram @ B, B.T @ Atb - c)
    if reg.kind == "l1":
        signs_hold = bool(np.all(np.sign(z) == np.sign(v)))
    if reg.kind == "tv1d":
        signs_hold = all(np.sign(z[j] - z[j - 1]) == sig[j]
                         for j in range(1, K))
    return B @ z, signs_hold


def estimate_projection_diagonal(n, candidates, p_b, n_draws, seed=0):
    """Monte Carlo estimate of random subspace descent's mean projection
    diagonal: the mean of 1 - enforced over n_draws successive masks that
    ``exploit._subspace_update`` draws from one generator seeded with seed,
    with the candidates frozen. Enforcing each candidate independently with
    probability p_b zeroes that coordinate, so the exact mean is 1 - p_b on
    candidates and 1 elsewhere."""
    frozen = np.zeros(n, dtype=bool)
    frozen[list(candidates)] = True
    rng = np.random.default_rng(seed)
    zeros = np.zeros(n)
    enforced = [_subspace_update(rng, frozen, p_b, zeros, zeros)[1]
                for _ in range(n_draws)]
    return 1.0 - np.mean(enforced, axis=0)
