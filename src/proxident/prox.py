"""Structure-reporting proximal operators.

Every operator here returns, next to the minimizer of

    g(y) + ||y - u||^2 / (2*gamma),

the exact membership pattern of the output with respect to the regularizer's
structure collection. The pattern is read off the branch taken inside the
computation (which coordinates were thresholded, which segments were merged,
how many singular values survived), never from a numeric tolerance test.
Each kernel computes that branch as a fresh boolean mask, and its result's
``SparsityPattern`` keeps that mask, frozen, as its bits: one structure
object a call, with no check and no copy.

Supported regularizers g = lam * r:

=========  ====================================  =========================
kind       r(x)                                  structure collection
=========  ====================================  =========================
l1         sum_i |x_i|                           coordinate zeros
l0         #{i : x_i != 0}                       coordinate zeros
tv1d       sum_i |x_i - x_{i-1}|                 adjacent equalities
potts1d    #{i : x_i != x_{i-1}}                 adjacent equalities
nuclear    sum_i sigma_i(X)                      rank levels
rank       rank(X)                               rank levels
=========  ====================================  =========================

Hard-thresholding boundaries: minimizing gamma*lam*||y||_0 + ||y-u||^2/2
coordinate-wise keeps u_i iff |u_i| > sqrt(2*gamma*lam); ties go to the zero
branch (more structure). The nuclear norm and the rank are the l1 norm and
the l0 count of the singular values, so their proxes apply the l1 and l0
rules to sigma(u) after one SVD; the rank pattern has its 0 bit at the kept
count.

The branch that gives the pattern also gives the value g(x) = lam * r(x) of
the output, reported as the number ``ProxResult.value``: lam times the l1
norm of the point (l1), of its differences (tv1d) or of the shrunk singular
values (nuclear), the kept count (l0), the kept rank (rank) or the jump
count (potts1d). The solvers' objective column is f(x_k) plus this value,
so an SVD-based iteration makes one SVD, not two.

``Regularizer(kind, lam, ambient)`` is g: one row per kind gives its
collection's kind, its kernel, r and g's linear part on a flat of the
collection, and the collection is built over ambient, so it always matches
the kind.

The SVD-based kinds use the singular vectors exactly as LAPACK returns
them, with no sign convention: flipping column j of U and row j of V^T
together leaves (U * s) @ V^T bit for bit the same (negation is exact and
each product keeps its sign), and nothing else reads the vectors.

The tv1d prox keeps the decisions of a taut-string scan as a plan when
the next scan repeats them, or when the next call repeats the scan's
input. A call of the same length first checks that plan in one vectorised
pass (the scan's own quotients and comparisons, evaluated in numpy) and,
on a hit, builds the output from it; on a miss it runs the scan. Either
way the output is the scan's, byte for byte: a plan from another input or
another thread costs a miss, never a different result.

The potts1d prox keeps the back pointers of a dynamic program as its plan
when the next DP chooses them again and meets no tie on the way; any other
DP drops the plan. A call of the same length first checks the plan: in
vectorised passes it builds the segment costs with the DP's own
operations, takes the best values along the plan's chain and accepts only
when every right end's planned breakpoint is its row's strict, unique
minimum, where the DP's choice and best value are the plan's (see
_potts_planned). On a hit the output is read off the plan's chain; on a
miss the DP runs. The check's memory is a fixed multiple of n, with at
most _POTTS_CHECK_CELLS costs a pass, and the output is the DP's, byte for
byte: here too a plan from another input or another thread costs a miss.

Every operator rejects non-finite input, a non-positive or non-finite
gamma and a negative or non-finite lam with a ValueError; lam = 0 is
allowed.
"""

import math

import numpy as np

from .manifolds import (
    ADJACENT_EQUAL,
    COORDINATE_ZERO,
    RANK_LEVEL,
    ManifoldCollection,
    _frozen_pattern,
)

__all__ = [
    "ProxResult",
    "Regularizer",
    "prox_l1",
    "prox_l0",
    "prox_tv1d",
    "prox_potts1d",
    "prox_nuclear",
    "prox_rank",
]


class ProxResult:
    """Prox output, its exact structure pattern, and g at the output.

    pattern is a ``SparsityPattern`` or None (no pattern). A kernel's
    pattern holds the boolean branch mask it computed as its bits, frozen,
    not copied (see the module docstring).

    value is the number lam * r(point), taken from the branch the prox took
    (see the module docstring). For l1, l0, tv1d and potts1d it equals
    ``Regularizer.value(point)`` bit for bit; for nuclear it differs from
    that SVD of the point in the last bits only; for rank it is the exact
    kept rank, which ``Regularizer.value``'s relative cut (1e-10 * sigma_max)
    undercounts when a kept singular value lies below that cut. It is None
    only on the start point a run returns when its first step diverges.
    """

    __slots__ = ("point", "pattern", "value")

    def __init__(self, point, pattern, value=None):
        self.point, self.pattern, self.value = point, pattern, value


def _check_input(u, gamma, lam=1.0):
    u = np.asarray(u, dtype=float)
    # one BLAS call: a finite sum of squares proves every entry finite; a
    # sum that overflows (|u_i| above about 1e154) falls back to the scan.
    # vdot, unlike dot, does not report the overflow as a RuntimeWarning.
    if not math.isfinite(np.vdot(u, u)) and not np.isfinite(u).all():
        raise ValueError("prox input must be finite")
    if not (0.0 < gamma < math.inf and 0.0 <= lam < math.inf):
        _check_gamma(gamma)
        raise ValueError(f"lam must be finite and nonnegative, got {lam!r}")
    return u


def _check_gamma(gamma):
    """Raise a ValueError unless gamma is positive and finite."""
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")


class _InputTooLarge(ValueError):
    """A finite input to a 1-D kernel whose running sums overflow. The
    solvers end a run that meets one as diverged (``solvers._advance``)."""


def _l1(x) -> float:
    """sum_i |x_i|; np.add.reduce(., None) is the reduction ndarray.sum runs."""
    return float(np.add.reduce(np.abs(x), None))


def _l0(x) -> float:
    """#{i : x_i != 0}."""
    return float(np.count_nonzero(x))


def _soft(u, t):
    """(x, keep): x is 0 on [-t, t] and u -+ t outside; keep is |u| > t.

    For t > 0, keep is read from x as x != 0, through x.astype(bool) (the
    same bytes, fewer steps): outside [-t, t], u -+ t is the difference of
    two distinct floats, which is never 0 (IEEE arithmetic underflows
    gradually), and inside, x is u - u = +0.0. This holds at |u| = t, for
    a subnormal t and for t = inf.
    """
    if t > 0:
        # u - clip(u, -t, t) is u -+ t outside [-t, t] and u - u = +0.0
        # inside: the bytes of the np.where form below, in two calls fewer
        x = u - np.minimum(np.maximum(u, -t), t)
        return x, x.astype(bool)
    # t == 0 (lam = 0, or gamma * lam underflows): u = -0.0 ties both clip
    # bounds and the clip form would return -0.0, not +0.0
    keep = np.abs(u) > t
    return np.where(keep, u - t * np.sign(u), 0.0), keep


def _hard(u, thr):
    """(x, keep): x is u where keep = |u| > thr holds, 0 elsewhere."""
    keep = np.abs(u) > thr
    return np.where(keep, u, 0.0), keep


def prox_l1(u, gamma, lam=1.0) -> ProxResult:
    """Soft thresholding at gamma*lam.

    Coordinate-wise: 0 on [-gamma*lam, gamma*lam] (boundary included),
    u_i -+ gamma*lam outside. Pattern bit i is 0 iff the zero branch fired.
    """
    x, keep = _soft(_check_input(u, gamma, lam), gamma * lam)
    return ProxResult(x, _frozen_pattern(keep), lam * _l1(x))


def prox_l0(u, gamma, lam=1.0) -> ProxResult:
    """Hard thresholding: keep u_i iff |u_i| > sqrt(2*gamma*lam)."""
    x, keep = _hard(_check_input(u, gamma, lam), np.sqrt(2.0 * gamma * lam))
    return ProxResult(x, _frozen_pattern(keep), lam * _l0(keep))


# ---------------------------------------------------------------------------
# 1-D total variation: exact taut-string construction.
#
# With running sums r_k = sum_{i<=k} u_i, the prox of step*TV is the discrete
# derivative of the shortest path ("taut string") from (0, 0) to (n, r_n)
# that passes within +-step of r_k at every interior k. Each linear piece of
# the string is one constant segment of the output, so the segment structure
# is a byproduct of the construction.
#
# Consecutive calls in a run almost always take the same bends. When a scan
# takes the same decisions as the scan before it, they are kept as a plan,
# and the next call of the same length first checks in one vectorised pass
# whether the scan would take them again (see _tv1d_planned). The scan stays
# the one definition of the output: the check computes the scan's own
# quotients and accepts only when every comparison the scan makes comes out
# as recorded. A call on the very input of the last scan builds the plan of
# that scan's decisions first, so the plan holds again on its own input. A
# stream of unrelated inputs, whose decisions never repeat, pays the check
# of a stale plan and one list comparison on top of the scan.
# ---------------------------------------------------------------------------

_UPPER, _LOWER, _FINAL = 0, 1, 2  # how the scan ends a segment

# The plan, replaced as a whole, and the last scan's decisions and input
# (step, bytes). The plan is only a guess: a plan from another input,
# another length or another thread costs a miss, never a different output.
_tv1d_plan = None
_tv1d_decisions = None
_tv1d_input = None


def _tv1d_segments(y, step):
    """Segments (start, end, value) of the exact TV prox, end exclusive.

    The scan runs on Python floats: the tube bounds r_k +- step of the
    running sums r_k are converted to lists once per call, and each quotient
    and comparison below is the same IEEE operation as on numpy scalars.
    It also records its decisions: per segment, its anchor and end, the
    index J at which it ended the segment and how (a bend at the upper or
    the lower bound, or the final piece). When they are the last scan's,
    it replaces the module's plan with the one built from them.
    """
    global _tv1d_plan, _tv1d_decisions, _tv1d_input
    n = y.size
    r = np.cumsum(y)
    r_n = r[-1].item()
    if not math.isfinite(r_n):  # an overflowed sum stays inf or nan
        raise _InputTooLarge(
            "tv1d input too large: its running sums overflow")
    rp = (r + step).tolist()
    rm = (r - step).tolist()
    segs = []
    decisions = []  # (a, b, J, how) per segment
    a = 0  # anchor: string position, value s_a
    s_a = 0.0
    while a < n:
        m_hi = np.inf
        m_lo = -np.inf
        k_hi = k_lo = a
        j = a + 1
        while True:
            if j == n:
                up = lo = (r_n - s_a) / (j - a)
            else:
                up = (rp[j - 1] - s_a) / (j - a)
                lo = (rm[j - 1] - s_a) / (j - a)
            if lo > m_hi:
                # no straight line fits: the string bends at the upper bound
                segs.append((a, k_hi, m_hi))
                decisions.append((a, k_hi, j, _UPPER))
                s_a = rp[k_hi - 1]
                a = k_hi
                break
            if up < m_lo:
                segs.append((a, k_lo, m_lo))
                decisions.append((a, k_lo, j, _LOWER))
                s_a = rm[k_lo - 1]
                a = k_lo
                break
            if up <= m_hi:
                m_hi, k_hi = up, j
            if lo >= m_lo:
                m_lo, k_lo = lo, j
            if j == n:
                segs.append((a, n, up))
                decisions.append((a, n, j, _FINAL))
                a = n
                break
            j += 1
    if decisions == _tv1d_decisions:
        _tv1d_plan = _Tv1dPlan(n, decisions)
    _tv1d_decisions = decisions
    _tv1d_input = (step, y.tobytes())
    return segs


class _Tv1dPlan:
    """A scan's decisions over n points, as index arrays.

    The scan ended segment i, which runs from its anchor a_i to b_i, at
    index J_i, by a bend at b_i or, for the final piece, at J_i = n. Its
    entries are the indices j = a_i+1 .. J_i: its window a_i+1 .. J_i-1,
    where the scan updated its running extremes, then J_i. The check
    (_tv1d_planned) computes the scan's quotients up_j and lo_j at every
    entry into one array

        t = [up (e entries), lo (e entries), U (3k), L (3k)],

    where U[3i:3i+3] reduce up over segment i's entries by minimum, and L
    reduce lo by maximum, in three parts (reduceat over ``cuts``): the
    window up to b_i, the window after b_i, and J_i alone. Only the side
    the segment bends at is split at b_i; on the other side, and in the
    final piece, the first part is the whole window and the second one J_i
    alone. The check reads the tube bounds from a buffer [rp (n), rm (n),
    0.0]: ``take`` holds the places of rp[j - 1] at the e entries, then
    those of rm[j - 1], so one flat take gathers up's and lo's numerators,
    and ``anchor`` and ``den`` repeat their e entries for both halves. The
    arrays depend on n and the decisions only, never on input values.

    Since lo_j <= up_j at every entry, the scan passes a window without a
    break iff max lo <= min up over it. So it takes the plan's decisions
    iff, in every segment, that holds, the break at J_i is the recorded
    one (upper: lo_J > min up; lower: up_J < max lo, and then lo_J <= up_J
    is not above min up; final: neither, which for lo_J = up_J also gives
    max lo <= min up), and b_i is the last window place where up (upper
    bend) or lo (lower bend) is at its extreme. Each of these is one
    comparison t[left] > t[right] with its recorded outcome in ``expect``;
    ``tests`` holds the left places, then the right ones.

    A part with no entries (the window after b_i when J_i = b_i + 1, or the
    window of a final piece of one point) reads the entry it starts at,
    J_i. The tests still decide as the scan does: after an upper bend at
    b_i = J_i - 1, "up after b_i is above min up" reads up_J >= lo_J, above
    min up whenever the break test holds (likewise for lo at a lower bend),
    and a final piece of one point compares its one quotient with itself,
    never above itself, as the scan finds no break there.
    """

    __slots__ = ("n", "take", "anchor", "den", "cuts", "size", "tests",
                 "expect", "values", "lengths")

    def __init__(self, n, decisions):
        k = len(decisions)
        count = [j - a for a, _, j, _ in decisions]
        e = sum(count)
        u0, l0 = 2 * e, 2 * e + 3 * k  # the places of U[3i] and L[3i]
        cut_up, cut_lo, left, right, expect, values = [], [], [], [], [], []
        # the tube bounds sit in a buffer [rp (n), rm (n), 0.0]; segment
        # i + 1 is anchored at rp[b_i - 1] or rm[b_i - 1] by the side
        # segment i bends at, the first one at 0.0, and only the last
        # segment is the final piece (a bend is at most at J_i - 1 < n)
        firsts, shifts, anchors = [], [], [2 * n]
        first = 0  # the place of a_i + 1 among the entries
        for a, b, j, how in decisions:
            last = first + j - a - 1  # J_i
            bend = first + b - a - 1  # b_i
            firsts.append(first)
            shifts.append(a - first)
            if how == _UPPER:
                # no earlier break, lo_J above min up, up at b_i not above
                # min up, and min up after b_i above it
                cut_up += first, bend + 1, last
                cut_lo += first, last, last
                left += l0, l0 + 2, bend, u0 + 1
                right += u0, u0, u0, u0
                expect += 0, 1, 0, 1
                values.append(bend)
                anchors.append(b - 1)
            elif how == _LOWER:
                # no earlier break, up_J below max lo, lo at b_i not below
                # max lo, and max lo after b_i below it
                cut_up += first, last, last
                cut_lo += first, bend + 1, last
                left += l0, l0, l0, l0
                right += u0, u0 + 2, e + bend, l0 + 1
                expect += 0, 1, 0, 1
                values.append(e + bend)
                anchors.append(n + b - 1)
            else:
                # no break at J_i = n: lo_J not above min up, up_J not below
                # max lo; as lo_J = up_J there, no earlier break follows
                cut_up += first, last, last
                cut_lo += first, last, last
                left += l0 + 2, l0
                right += u0, u0 + 2
                expect += 0, 0
                values.append(last)
            u0 += 3
            l0 += 3
            first = last + 1
        # per entry: its segment's first place, a_i - first place and anchor
        seg_first, seg_shift, anchor = np.repeat(
            np.array([firsts, shifts, anchors]), count, axis=1)
        place = np.arange(e)
        take = place + seg_shift  # j - 1
        den = (place + 1.0) - seg_first  # j - a_i
        self.n = n
        # up_j reads rp[j - 1] and lo_j reads rm[j - 1], both less the
        # segment's anchor and over j - a_i
        self.take = np.concatenate((take, take + n))
        self.anchor = np.concatenate((anchor, anchor))
        self.den = np.concatenate((den, den))
        self.cuts = np.array(cut_up + cut_lo)
        self.size = 2 * e + 6 * k
        self.tests = np.array(left + right)
        self.expect = bytes(expect)
        # a bending segment's value is the extreme the scan kept at b_i (the
        # last tied one, which settles signed zeros); the final piece's is
        # its quotient at n
        self.values = np.array(values)
        self.lengths = np.array([b - a for a, b, _, _ in decisions])


def _tv1d_planned(plan, y, step):
    """The point the scan would give y, if it takes plan's decisions on y;
    else None, so also when there is no plan of y's length or a tube bound
    r_k +- step, or a difference of two, could overflow: the check runs
    only when 2 * (max |r_k| + step), which bounds them all, is finite."""
    if plan is None or plan.n != y.size:
        return None
    n = plan.n
    buf = np.empty(2 * n + 1)
    r = np.add.accumulate(y, out=buf[:n])
    # every tube bound r +- step, and every difference of two, is at most
    # 2 * (max |r| + step) in size: when that is finite, nothing below
    # overflows (a nan or inf sum fails too; Python floats overflow to inf
    # without a warning), and larger inputs are left to the scan
    if not math.isfinite(2.0 * (np.abs(r).max().item() + float(step))):
        return None
    r_n = r[-1].item()
    np.subtract(r, step, out=buf[n:2 * n])
    np.add(r, step, out=r)
    # rp[n-1] and rm[n-1] are never read: the scan's quotient at j = n is
    # (r_n - s)/(n - a) for up and lo alike
    buf[n - 1] = buf[2 * n - 1] = r_n
    buf[2 * n] = 0.0
    e2 = plan.take.size
    e = e2 // 2
    t = np.empty(plan.size)
    v = buf.take(plan.take, out=t[:e2])  # up, lo
    v -= buf.take(plan.anchor)
    v /= plan.den
    m = plan.cuts.size // 2
    np.minimum.reduceat(t[:e], plan.cuts[:m], out=t[e2:e2 + m])
    np.maximum.reduceat(t[e:e2], plan.cuts[m:], out=t[e2 + m:])
    g = t.take(plan.tests)
    c = g.size // 2
    if (g[:c] > g[c:]).tobytes() != plan.expect:
        return None
    return t.take(plan.values).repeat(plan.lengths)


def _segments_to_point(segs, n):
    """The point of a segmentation (start, end, value) of n points."""
    k = len(segs)
    starts = np.fromiter([s for s, _, _ in segs] + [n], np.intp, k + 1)
    values = np.fromiter([v for _, _, v in segs], float, k)
    return np.repeat(values, starts[1:] - starts[:-1])


def _jump_pattern(x):
    """x's adjacent-equality pattern: bit i is 1 iff x[i] != x[i+1], so a
    boundary between same-valued segments (-0.0 == +0.0 included) keeps
    its neighbours members."""
    return _frozen_pattern(x[1:] != x[:-1])


def _check_1d(kind, u, gamma, lam):
    """u as a float vector of length >= 2, after the input checks."""
    u = _check_input(u, gamma, lam)
    if u.ndim != 1 or u.size < 2:
        raise ValueError(f"{kind} needs a vector of length >= 2")
    return u


def prox_tv1d(u, gamma, lam=1.0) -> ProxResult:
    """Exact prox of the 1-D total variation, with exact segment flags.

    The output is always the taut-string scan's, byte for byte. Cost: when
    the last scan's plan holds for u (same length, the same bends), one
    vectorised numpy check over the steps of that scan; otherwise that
    check plus the scan, which replaces the plan when it takes the last
    scan's decisions again (on the last scan's own input, the plan of its
    decisions is built and checked before any scan). The scan goes from
    each segment's anchor to the index where the tube forces a bend, and
    the string restarts at the bend, so it takes O(n) steps when segments
    end close to where the bend is detected and O(n^2) at worst. An input
    whose running sums overflow is rejected with a ValueError.
    """
    global _tv1d_plan
    u = _check_1d("tv1d", u, gamma, lam)
    step = gamma * lam
    x = _tv1d_planned(_tv1d_plan, u, step)
    if x is None and _tv1d_input == (step, u.tobytes()):
        _tv1d_plan = _Tv1dPlan(u.size, _tv1d_decisions)
        x = _tv1d_planned(_tv1d_plan, u, step)
    if x is None:
        x = _segments_to_point(_tv1d_segments(u, step), u.size)
    # x[1:] - x[:-1] is the subtraction np.diff runs
    return ProxResult(x, _jump_pattern(x), lam * _l1(x[1:] - x[:-1]))


_POTTS_BLOCK = 16  # right ends per vectorised pass of the Potts DP
_POTTS_CHECK_CELLS = 1 << 15  # segment costs per pass of the plan check

# The DP's per-length constants (_potts_constants); the plan, replaced as
# a whole: the back pointers of a DP that the DP before it or a check
# confirmed, as a list and as an index array; and the last DP's back
# pointers, or None when it met a tie. The plan is only a guess: a plan
# from another input, another length or another thread costs a miss,
# never a different output.
_potts_consts = None
_potts_plan = None
_potts_back = None


def _potts_check_rows(n):
    """Right ends per pass of the plan check: all n while the pass holds
    at most _POTTS_CHECK_CELLS segment costs, fewer (at least one) above."""
    return max(1, min(n, _POTTS_CHECK_CELLS // n))


def _potts_constants(n):
    """(n, rows, lengths, below, above), shared by the DP and the plan
    check.

    Row n - r of lengths holds r - l at the columns l < r and the padding
    1.0 at l >= r, which keeps the unused costs there finite; it is one
    strided view of 2n - 1 floats. below[i, j] says j < i: row i of a
    block of right ends has its in-block breakpoints at the columns j < i,
    and above is its negation. The masks have as many rows as the larger
    of a DP block and a check pass; a block of fewer rows reads their
    top-left corner.
    """
    global _potts_consts
    rows = max(min(_POTTS_BLOCK, n), _potts_check_rows(n))
    consts = _potts_consts
    if consts is None or consts[0] != n or consts[1] < rows:
        pad = np.concatenate((np.arange(n, 0, -1.0), np.ones(n - 1)))
        lengths = np.ndarray((n, n), buffer=pad, strides=2 * pad.strides)
        below = np.tri(rows, rows - 1, -1, bool)
        consts = _potts_consts = (n, rows, lengths, below, ~below)
    return consts


def _potts_sums(y):
    """(c1, c2, c1 as a list): the running sums of y and of y*y, from 0.

    An input whose sums overflow is rejected: an overflowed sum stays inf
    or nan, and n * sum(y*y) bounds every squared segment sum
    (c1[r] - c1[l])**2.
    """
    n = y.size
    c1 = np.zeros(n + 1)
    c2 = np.zeros(n + 1)
    np.add.accumulate(y, out=c1[1:])  # the sums np.cumsum runs
    np.add.accumulate(y * y, out=c2[1:])
    c1l = c1.tolist()
    if not (math.isfinite(c1l[n]) and math.isfinite(n * c2[n].item())):
        raise _InputTooLarge("potts1d input too large: its running sums of "
                             "y or n times those of y*y overflow")
    return c1, c2, c1l


def _potts_costs(out, sq, c1, c2, lengths, r0, r1):
    """The segment costs 0.5 * ((c2[r] - c2[l]) - sq*sq / (r - l)) of the
    right ends r0..r1-1 (rows) and the breakpoints l < r1 - 1 (columns),
    into out, with sq = c1[r] - c1[l] in the buffer sq; the costs at
    l >= r are finite padding."""
    n = c1.size - 1
    np.subtract(c2[r0:r1, None], c2[:r1 - 1], out=out)
    np.subtract(c1[r0:r1, None], c1[:r1 - 1], out=sq)
    np.multiply(sq, sq, out=sq)
    np.divide(sq, lengths[n - r1 + 1:n - r0 + 1][::-1, :r1 - 1], out=sq)
    np.subtract(out, sq, out=out)
    np.multiply(out, 0.5, out=out)


def _potts_chain(back, c1l):
    """The segments (start, end, mean) that back's chain from n gives."""
    segs = []
    r = len(back) - 1
    while r > 0:
        l = back[r]
        segs.append((l, r, (c1l[r] - c1l[l]) / (r - l)))
        r = l
    segs.reverse()
    return segs


def _potts_segments(y, step):
    """Optimal segmentation for step*(#jumps) + 0.5*||y - x||^2.

    O(n^2) dynamic program over the last breakpoint l of each right end r;
    per-segment values are the segment means. Ties prefer fewer segments,
    then the first breakpoint.

    The right ends are taken in blocks of _POTTS_BLOCK rows. One vectorised
    pass per block builds every row's segment costs and scores the
    breakpoints before the block, whose best values are known; those inside
    the block are scored on Python floats, row by row, as their best values
    become known. Every total is the same IEEE expression
    (best[l] + cost) + jump[l] wherever it is computed.

    A row scores its in-block breakpoints only when a lower bound does not
    rule them out. The bound is (least best value known in the block +
    the row's least in-block cost) + step, the costs' minima taken in one
    masked reduction per block. IEEE rounding is monotone, so no in-block
    total is below it: when it is above the row's best pre-block total m,
    no in-block breakpoint beats or ties m, and the row keeps its pre-block
    answer (the same tie rule, and the chosen total as its best value).

    The DP also keeps its back pointers: when no row met a tie and they
    are the last DP's, they become the module's plan (see _potts_planned);
    any other DP drops the plan. Cost: O(n^2) arithmetic in about n/16
    block passes plus the Python scan of the in-block rows the bound does
    not rule out; the extra memory is O(16*n) on top of the shared
    per-length constants.
    """
    global _potts_plan, _potts_back
    n = y.size
    c1, c2, c1l = _potts_sums(y)
    _, _, lengths, below, _ = _potts_constants(n)
    rows = min(_POTTS_BLOCK, n)
    seg_buf = np.empty(rows * n)
    sq_buf = np.empty(rows * n)
    best = np.zeros(n + 1)
    jump = np.full(n, step)  # the cost of a jump at l > 0
    jump[0] = 0.0
    nseg = [0] * (n + 1)
    back = [0] * (n + 1)
    tied = False
    for r0 in range(1, n + 1, rows):
        r1 = min(r0 + rows, n + 1)
        b, w = r1 - r0, r1 - 1  # rows r0..r1-1 use the breakpoints l < w
        total = seg_buf[:b * w].reshape(b, w)
        _potts_costs(total, sq_buf[:b * w].reshape(b, w), c1, c2, lengths,
                     r0, r1)
        # the totals of the breakpoints before the block, whose best values
        # are known; those inside it keep their costs
        pre, inner = total[:, :r0], total[:, r0:]
        np.add(best[:r0], pre, out=pre)
        np.add(pre, jump[:r0], out=pre)
        firsts = pre.argmin(1).tolist()
        lasts = pre[:, ::-1].argmin(1).tolist()
        # each row's least in-block cost: one masked reduction a block
        inner_min = np.minimum.reduce(
            inner, 1, initial=math.inf, where=below[:b, :b - 1]).tolist()
        block_best = []
        low = math.inf  # the least best value known in the block
        for i, l in enumerate(firsts):
            m = total.item(i, l)
            # IEEE rounding is monotone, so every in-block total
            # (v + c) + step is at least this bound: above m, none of them
            # beats or ties m, and the row keeps its pre-block answer
            if (low + inner_min[i]) + step > m:
                inb, m_in = (), math.inf
            else:
                inb = [(v + c) + step
                       for v, c in zip(block_best, inner[i, :i].tolist())]
                m_in = min(inb, default=math.inf)
            # the breakpoints tied at the row's minimum, in index order
            if m_in < m:
                ties = []
            elif l + lasts[i] == r0 - 1:  # the first and last argmin agree
                ties = [l]
            else:
                ties = np.flatnonzero(total[i, :r0] == m).tolist()
            if m_in <= m:
                ties += [r0 + j for j, t in enumerate(inb) if t == m_in]
            # the first tied breakpoint with the fewest segments
            if len(ties) == 1:
                l = ties[0]
            else:
                tied = True
                l = min(ties, key=nseg.__getitem__)
            value = inb[l - r0] if l >= r0 else total.item(i, l)
            block_best.append(value)
            if value < low:
                low = value
            nseg[r0 + i] = nseg[l] + 1
            back[r0 + i] = l
        best[r0:r1] = block_best
    # the check fails on the very input of a DP that met a tie, so such
    # a DP keeps no plan
    confirmed = not tied and back == _potts_back
    _potts_plan = (back, np.array(back)) if confirmed else None
    _potts_back = None if tied else back
    return _potts_chain(back, c1l)


def _potts_planned(plan, y, step):
    """The DP's segments of y, if every choice the DP would make on y is
    plan's; else None, so also when plan is None or of another length.

    plan is (back, index array of back). The check computes, right end by
    right end in ascending order, best[r] = (best[l] + cost(l, r)) + jump[l]
    at l = back[r], and every other total of the row, l < r, with the DP's
    own operations in its order (_potts_costs, then best, then jump). It
    accepts only when every other total is above best[r]: the plan's
    breakpoint is the row's strict, unique minimum.

    Then the DP chooses it. Suppose the best values at l < r are the DP's.
    The row's totals are then the DP's bit for bit, and a unique strict
    minimum is chosen whatever the tie rule, which only breaks ties, and
    whatever the DP's lower bound skips, which only skips totals above the
    pre-block minimum. So the DP's choice at r is back[r] and its best[r]
    is the check's, and by induction on r every choice and best value is
    the DP's; the output, read off the same chain, is the DP's byte for
    byte. A nan total or best value fails the comparison, and an input
    whose sums overflow raises as the DP does.

    The right ends are checked _potts_check_rows(n) at a time, and the
    first pass that finds a row where the plan fails ends the check, so
    its extra memory is at most a few arrays of max(n, _POTTS_CHECK_CELLS)
    floats.
    """
    if plan is None or len(plan[0]) != y.size + 1:
        return None
    back, back_at = plan
    n = y.size
    step = float(step)
    c1, c2, c1l = _potts_sums(y)
    _, _, lengths, _, above = _potts_constants(n)
    rows = _potts_check_rows(n)
    cells = rows * n
    seg_buf = np.empty(cells)
    sq_buf = np.empty(cells)
    gt_buf = np.empty(cells, bool)
    best = np.zeros(n + 1)
    best_l = [0.0] * (n + 1)
    for r0 in range(1, n + 1, rows):
        r1 = min(r0 + rows, n + 1)
        b, w = r1 - r0, r1 - 1
        total = seg_buf[:b * w].reshape(b, w)
        _potts_costs(total, sq_buf[:b * w].reshape(b, w), c1, c2, lengths,
                     r0, r1)
        at = (np.arange(b), back_at[r0:r1])
        # best along the plan's chain; back[r] < r is known by now
        for r, c in zip(range(r0, r1), total[at].tolist()):
            l = back[r]
            best_l[r] = (best_l[l] + c) + (step if l else 0.0)
        best[r0:r1] = best_l[r0:r1]
        np.add(best[:w], total, out=total)
        # the jump costs: step at l > 0 in one flat pass, 0.0 at l = 0
        first = total[:, 0] + 0.0
        np.add(total, step, out=total)
        total[:, 0] = first
        total[at] = math.inf
        # above every row's best value at every other breakpoint l < r; the
        # padding at l >= r passes, and a nan fails
        gt = gt_buf[:b * w].reshape(b, w)
        np.greater(total, best[r0:r1, None], out=gt)
        np.logical_or(gt[:, r0:], above[:b, :b - 1], out=gt[:, r0:])
        if not gt.all():
            return None
    return _potts_chain(back, c1l)


def prox_potts1d(u, gamma, lam=1.0) -> ProxResult:
    """Exact prox of the jump-count penalty (piecewise-constant fits).

    The output is always the DP's (_potts_segments), byte for byte. Cost:
    when the plan, the back pointers of a DP that the DP before it or a
    check confirmed, holds for u (same length, every choice the DP's
    strict unique minimum), one vectorised check of about 10 passes over
    the n^2/2 segment costs and a Python loop of n steps. Otherwise that
    check, which stops at the first pass that fails, plus the DP: O(n^2)
    arithmetic in about n/16 block passes, each over the segment costs of
    16 right ends at once, and a Python-float scan of the breakpoints
    inside each block for the right ends where an exact lower bound does
    not rule them out. The DP drops the plan, and keeps its own when it
    met no tie and chose as the DP before it. The extra memory is a fixed
    multiple of n, with at most _POTTS_CHECK_CELLS costs per check pass:
    no n x n array. A plan from another input or another thread costs a
    miss, never a different result. An input whose running sums, or n
    times those of its squares, overflow is rejected with a ValueError.
    """
    u = _check_1d("potts1d", u, gamma, lam)
    step = gamma * lam
    segs = _potts_planned(_potts_plan, u, step)
    if segs is None:
        segs = _potts_segments(u, step)
    x = _segments_to_point(segs, u.size)
    pattern = _jump_pattern(x)
    return ProxResult(x, pattern, lam * float(pattern.count_ones()))


def _spectral(kind, u, rule, thr):
    """(X, pattern, s): s is rule(., thr) applied to u's singular values,
    X = (W * s) @ V^T, and pattern's one 0 bit is at the kept count."""
    if u.ndim != 2:
        raise ValueError(f"{kind} prox expects a matrix")
    w, s, vt = np.linalg.svd(u, full_matrices=False)
    s, keep = rule(s, thr)
    bits = np.ones(min(u.shape) + 1, dtype=bool)
    bits[np.count_nonzero(keep)] = False
    return (w * s) @ vt, _frozen_pattern(bits), s


def prox_nuclear(u, gamma, lam=1.0) -> ProxResult:
    """Soft thresholding of the singular values at gamma*lam."""
    u = _check_input(u, gamma, lam)
    x, pattern, s = _spectral("nuclear", u, _soft, gamma * lam)
    return ProxResult(x, pattern, lam * _l1(s))


def prox_rank(u, gamma, lam=1.0) -> ProxResult:
    """Hard thresholding of the singular values at sqrt(2*gamma*lam)."""
    u = _check_input(u, gamma, lam)
    x, pattern, s = _spectral("rank", u, _hard, np.sqrt(2.0 * gamma * lam))
    return ProxResult(x, pattern, lam * _l0(s))


def _sigma(x):
    return np.linalg.svd(x, compute_uv=False)


def _rank(x):
    """Number of x's singular values above 1e-10 * sigma_max."""
    s = _sigma(x)
    return int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))


# kind -> (its collection's kind, its prox kernel, r, g's linear part on a
# flat: (signs, linear) with g(v) = lam * linear(s) . v for the flat
# coordinates v while signs(v) = s, or None where g is constant on a flat
# (l0, potts1d) or the sets are no flats (nuclear, rank)). For tv1d,
# lam * sum_j s_j (v_{j+1} - v_j) puts s_{j-1} - s_j on v_j (s_0 = s_K = 0).
_KINDS = {
    "l1": (COORDINATE_ZERO, prox_l1, _l1, (np.sign, lambda s: s)),
    "l0": (COORDINATE_ZERO, prox_l0, _l0, None),
    "tv1d": (ADJACENT_EQUAL, prox_tv1d, lambda x: _l1(np.diff(x)),
             (lambda v: np.sign(np.diff(v)),
              lambda s: -np.diff(s, prepend=0.0, append=0.0))),
    "potts1d": (ADJACENT_EQUAL, prox_potts1d, lambda x: _l0(np.diff(x)),
                None),
    "nuclear": (RANK_LEVEL, prox_nuclear, lambda x: _l1(_sigma(x)), None),
    "rank": (RANK_LEVEL, prox_rank, lambda x: float(_rank(x)), None),
}


def _check_lam(lam):
    """Raise a ValueError unless lam is positive and finite."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")


class Regularizer:
    """g = lam * r of one kind (see the module table), lam positive and
    finite, with the kind's structure collection built over ambient: n, or
    (rows, cols) for nuclear and rank. flat_linear is its row's g on a flat:
    a (signs, linear) pair, or None."""

    def __init__(self, kind: str, lam: float, ambient):
        if kind not in _KINDS:
            raise ValueError(f"unknown regularizer kind {kind!r}")
        _check_lam(lam)
        collection_kind, self._kernel, self._r, self.flat_linear = _KINDS[kind]
        self.kind = kind
        self.lam = float(lam)
        self.collection = ManifoldCollection(collection_kind, ambient)

    @classmethod
    def l1(cls, n, lam=1.0):
        return cls("l1", lam, n)

    @classmethod
    def l0(cls, n, lam=1.0):
        return cls("l0", lam, n)

    @classmethod
    def tv1d(cls, n, lam=1.0):
        return cls("tv1d", lam, n)

    @classmethod
    def potts1d(cls, n, lam=1.0):
        return cls("potts1d", lam, n)

    @classmethod
    def nuclear(cls, rows, cols, lam=1.0):
        return cls("nuclear", lam, (rows, cols))

    @classmethod
    def rank(cls, rows, cols, lam=1.0):
        return cls("rank", lam, (rows, cols))

    def value(self, x) -> float:
        """g(x) = lam * r(x). Counting kinds (l0, potts1d) use exact zero
        tests; the rank value uses a relative singular-value cutoff. A
        prox result carries this value for its own point (``value``)."""
        return self.lam * self._r(np.asarray(x, dtype=float))

    def prox(self, u, gamma) -> ProxResult:
        return self._kernel(u, gamma, self.lam)

