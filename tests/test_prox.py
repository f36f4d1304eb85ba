import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    pattern_of_reference,
    potts1d_bruteforce,
    potts_segments_reference,
    prox_l1_reference,
    prox_nuclear_reference,
    prox_optimality_residual,
    prox_rank_reference,
    segments_to_result_reference,
    svd_fixed_signs_reference,
    tv1d_bruteforce,
    tv1d_segments_reference,
)
import proxident.prox as prox_module
from proxident.manifolds import SparsityPattern, pattern_of
from proxident.problems import CompositeProblem, least_squares_oracle
from proxident.prox import (
    ProxResult,
    Regularizer,
    _check_input,
    _potts_segments,
    _jump_pattern,
    _segments_to_point,
    _tv1d_segments,
    prox_l0,
    prox_l1,
    prox_nuclear,
    prox_potts1d,
    prox_rank,
    prox_tv1d,
)
from proxident.registry import run_solver
from proxident.solvers import SolverConfig


class TestL1:
    def test_piecewise_cases(self):
        res = prox_l1(np.array([2.0, 0.5, -3.0]), 1.0)
        assert np.array_equal(res.point, [1.0, 0.0, -2.0])
        assert list(res.pattern.bits) == [1, 0, 1]

    def test_zero(self):
        res = prox_l1(np.zeros(4), 1.0)
        assert np.array_equal(res.point, np.zeros(4))
        assert res.pattern.count_ones() == 0

    def test_boundary_goes_to_zero_branch(self):
        res = prox_l1(np.array([0.7]), 1.0, lam=0.7)
        assert res.point[0] == 0.0
        assert res.pattern.bits[0] == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            prox_l1(np.array([np.nan]), 1.0)
        with pytest.raises(ValueError):
            prox_l1(np.ones(2), 0.0)


@st.composite
def _l1_cases(draw):
    """(u, gamma, lam): thresholds from underflowing to 0 (and lam = 0)
    through the smallest subnormal and the largest float up to inf, with
    entries that are signed zeros, subnormals, exactly +-t or a
    neighbour of it, near 1e300, or any finite float."""
    gamma = draw(st.sampled_from([1e-200, 5e-324, 1e-3, 0.5, 1.0, 1e300,
                                  1.7976931348623157e308]))
    lam = draw(st.sampled_from([0.0, 1e-200, 1e-12, 0.7, 1.0, 1e10]))
    t = gamma * lam
    with np.errstate(over="ignore"):  # above the largest float: inf
        near_t = [t, -t, np.nextafter(t, np.inf), np.nextafter(t, 0.0)]
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
               1.7e308, -1.7e308] + near_t + [-v for v in near_t]
    element = st.one_of(
        st.sampled_from([v for v in special if np.isfinite(v)]),
        st.floats(allow_nan=False, allow_infinity=False))
    u = np.array(draw(st.lists(element, min_size=1, max_size=40)))
    return u, gamma, lam


class TestL1MatchesReference:
    """prox_l1 gives the bytes of the np.where/np.sign form in
    tests/oracles.py: point, pattern bits and value. The bits pin _soft's
    mask, read off the shrunk point, to |u| > t."""

    @settings(max_examples=300, deadline=None)
    @given(_l1_cases())
    def test_point_pattern_and_value_bytes(self, case):
        u, gamma, lam = case
        with np.errstate(over="ignore", invalid="ignore"):
            res = prox_l1(u, gamma, lam)
            x, keep, value = prox_l1_reference(u, gamma, lam)
            got_value = res.value
        assert res.point.tobytes() == x.tobytes()
        assert res.pattern.bits.tobytes() == keep.astype(np.uint8).tobytes()
        assert got_value.hex() == value.hex()

    def test_zero_threshold_keeps_positive_zero(self):
        # at t = 0 (lam = 0 here; gamma * lam can also underflow) u = -0.0
        # ties the clip bounds, and the where form's +0.0 is kept
        u = np.array([-0.0, 0.0, -1.5])
        for gamma, lam in ((1.0, 0.0), (1e-200, 1e-200)):
            x = prox_l1(u, gamma, lam).point
            assert x.tobytes() == prox_l1_reference(u, gamma, lam)[0].tobytes()
            assert np.signbit(x).tolist() == [False, False, True]


class TestL0:
    def test_candidate_comparison(self):
        # brute force over the two candidates per coordinate
        u = np.array([0.5, 2.0])
        res = prox_l0(u, 1.0)
        assert np.array_equal(res.point, [0.0, 2.0])
        assert list(res.pattern.bits) == [0, 1]
        for i, ui in enumerate(u):
            keep_cost = 1.0  # gamma*lam*1
            zero_cost = 0.5 * ui * ui
            assert (res.point[i] != 0) == (keep_cost < zero_cost)

    def test_zero(self):
        assert np.array_equal(prox_l0(np.zeros(3), 2.0).point, np.zeros(3))

    def test_tie_prefers_zero(self):
        u = np.array([np.sqrt(2.0)])
        res = prox_l0(u, 1.0)
        assert res.point[0] == 0.0 and res.pattern.bits[0] == 0


class TestTV:
    def test_constant_unchanged(self):
        u = np.full(5, 3.7)
        res = prox_tv1d(u, 1.0)
        assert np.array_equal(res.point, u)
        assert res.pattern.count_ones() == 0

    def test_two_point_cases(self):
        res = prox_tv1d(np.array([0.0, 4.0]), 1.0)
        assert np.allclose(res.point, [1.0, 3.0], atol=1e-12)
        assert list(res.pattern.bits) == [1]
        res = prox_tv1d(np.array([0.0, 1.0]), 1.0)
        assert np.allclose(res.point, [0.5, 0.5], atol=1e-12)
        assert list(res.pattern.bits) == [0]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            prox_tv1d(np.array([1.0]), 1.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(10)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            u = rng.standard_normal(n) * rng.uniform(0.5, 2.5)
            if rng.random() < 0.3:
                u = np.round(u)  # provoke flat runs and ties
            step = rng.uniform(0.05, 1.5)
            assert np.allclose(
                prox_tv1d(u, step).point, tv1d_bruteforce(u, step), atol=1e-9
            )


class TestPotts:
    def test_constant_unchanged(self):
        u = np.full(4, -2.0)
        res = prox_potts1d(u, 1.0)
        assert np.array_equal(res.point, u)
        assert res.pattern.count_ones() == 0

    def test_merge_vs_keep(self):
        res = prox_potts1d(np.array([0.0, 1.0]), 1.0)
        assert np.allclose(res.point, [0.5, 0.5])  # merge cost 0.25 < 1
        assert list(res.pattern.bits) == [0]
        res = prox_potts1d(np.array([0.0, 10.0]), 1.0)
        assert np.array_equal(res.point, [0.0, 10.0])  # jump kept, 25 > 1
        assert list(res.pattern.bits) == [1]

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(2, 9))
            u = rng.standard_normal(n) * rng.uniform(0.5, 2.5)
            step = rng.uniform(0.05, 1.5)
            assert np.allclose(
                prox_potts1d(u, step).point, potts1d_bruteforce(u, step),
                atol=1e-9,
            )


    def test_tie_prefers_fewer_segments(self):
        # Both fits below cost exactly 3.0 at step 1; the DP meets them as
        # the breakpoints 3 and 4 of its last step, and the first of the two
        # ends a three-segment prefix.
        u = np.array([2.0, 0.0, 0.0, 2.0, 4.0])
        fewer = np.array([1.0, 1.0, 1.0, 1.0, 4.0])
        more = np.array([2.0, 0.0, 0.0, 3.0, 3.0])
        reg = Regularizer.potts1d(5, 1.0)
        for x in (fewer, more):
            assert reg.value(x) + 0.5 * np.sum((x - u) ** 2) == 3.0
        res = prox_potts1d(u, 1.0)
        assert np.array_equal(res.point, fewer)
        assert list(res.pattern.bits) == [0, 0, 0, 1]
        assert np.array_equal(potts1d_bruteforce(u, 1.0), fewer)


@st.composite
def _signals(draw):
    """Gaussian, integer-valued, or runs of repeated half-integers; the
    last two give exact ties in both kernels."""
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["gaussian", "integers", "runs"]))
    if kind == "integers":
        values = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return np.array(values, dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        return rng.standard_normal(n) * draw(st.sampled_from([1e-6, 1.0, 1e3]))
    levels = rng.integers(-4, 5, n) / 2.0
    return np.repeat(levels, rng.integers(1, 20, n))[:n]


_steps = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                   st.floats(-12.0, 6.0).map(lambda e: 10.0 ** e))
_lams = st.sampled_from([0.1, 0.7, 1.0, 3.0])


def _hex_segments(segs):
    return [(start, end, float(value).hex()) for start, end, value in segs]


class TestKernelsMatchReferenceLoops:
    """The 1-D kernels give the bytes of the loops kept in tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(_signals(), _steps)
    def test_tv1d_segments(self, u, step):
        segs = _tv1d_segments(u, step)
        assert _hex_segments(segs) == _hex_segments(
            tv1d_segments_reference(u, step))
        x, pattern = segments_to_result_reference(segs, u.size)
        res = prox_tv1d(u, step)
        assert res.point.tobytes() == x.tobytes() and res.pattern == pattern

    @settings(max_examples=200, deadline=None)
    @given(_signals(), _steps)
    def test_potts_segments(self, u, step):
        segs = _potts_segments(u, step)
        assert _hex_segments(segs) == _hex_segments(
            potts_segments_reference(u, step))
        x, pattern = segments_to_result_reference(segs, u.size)
        res = prox_potts1d(u, step)
        assert res.point.tobytes() == x.tobytes() and res.pattern == pattern


def _counting_scans():
    """A patch that counts the taut-string scans prox_tv1d runs."""
    return mock.patch.object(prox_module, "_tv1d_segments",
                             wraps=prox_module._tv1d_segments)


def _assert_tv1d_is_reference(u, lam):
    """prox_tv1d(u, 1, lam), whatever plan it checks first, gives the point
    and pattern of the reference loop at step lam (lam = 0 included)."""
    res = prox_tv1d(u, 1.0, lam)
    x, pattern = segments_to_result_reference(
        tv1d_segments_reference(u, lam), u.size)
    assert res.point.tobytes() == x.tobytes()
    assert res.pattern.packed_hex() == pattern.packed_hex()


class TestTv1dPlan:
    """prox_tv1d first checks the last scan's plan on its input and scans
    only when the check fails; either way its output is the reference
    loop's, and a plan always holds again on the input it came from."""

    @settings(max_examples=200, deadline=None)
    @given(_signals(), st.one_of(st.just(0.0), _steps),
           st.integers(0, 2**32 - 1))
    def test_call_sequence_matches_reference(self, u, lam, seed):
        rng = np.random.default_rng(seed)
        n = u.size
        scale = max(1.0, float(np.abs(u).max()))
        with _counting_scans() as scan:
            _assert_tv1d_is_reference(u, lam)
            scans = scan.call_count
            _assert_tv1d_is_reference(u, lam)  # the plan holds: no scan
            assert scan.call_count == scans
            _assert_tv1d_is_reference(
                u + 1e-9 * scale * rng.standard_normal(n), lam)
            moved = u.copy()  # one point moved: most bends stay
            moved[rng.integers(n)] += scale * rng.choice([-1, -0.5, 0.5, 1])
            _assert_tv1d_is_reference(moved, lam)
            _assert_tv1d_is_reference(rng.standard_normal(n), lam)
            _assert_tv1d_is_reference(rng.standard_normal(n + 1), lam)

    # running sums of 0 and -5e-324 at lam = 0: up and lo tie at +-0.0 over
    # the first window, j = 1 .. 17, and the scan keeps the last tie as the
    # segment's value, where a minimum reduction over the window may return
    # another one (numpy's does here); -_TIED ties the same way at a lower
    # bend
    _TIED = np.diff([0.0] + [-5e-324 if i % 3 else 0.0 for i in range(1, 16)]
                    + [0.0, 1.0, 1.0], prepend=0.0)

    @pytest.mark.parametrize("u, lam", [
        (_TIED, 0.0),
        (-_TIED, 0.0),
        (np.array([0.0, 4.0]), 1.0),  # a bend, then a one-point final piece
        (np.array([0.0, 1.0]), 1.0),  # one final piece
        (np.array([0.0, 0.0, 0.0, 10.0]), 1.0),
        (np.array([3.0, -1.0, 2.0, 2.0, -5.0, 0.5]), 0.0),
    ])
    def test_pinned_inputs_hit_and_match(self, u, lam):
        with _counting_scans() as scan:
            _assert_tv1d_is_reference(u, lam)
            scans = scan.call_count
            _assert_tv1d_is_reference(u, lam)
            assert scan.call_count == scans

    # (A, B, lam): B takes all but one of the decisions of A's scan, and
    # the check of A's plan on B must find the one that differs
    @pytest.mark.parametrize("a, b, lam", [
        pytest.param([-3.0, 3.0, -2.0, 0.0, 3.0], [-3.0, 3.5, -2.0, 0.5, 3.0],
                     1.0, id="upper-bend-point-moves"),
        pytest.param([0.0, -3.0, -2.0, -1.0, -1.0],
                     [0.0, -3.0, -3.0, -1.0, -1.0], 0.25,
                     id="upper-later-tie"),
        pytest.param([0.0, 1.0, -1.0, 3.0], [0.5, 1.0, -0.5, 3.5], 0.25,
                     id="upper-no-break"),
        pytest.param([0.0, 0.0, 3.0, 0.0], [1.0, -3.0, 2.0, 0.0], 0.25,
                     id="upper-earlier-break"),
        pytest.param([-2.0, -2.0, -3.0], [-2.0, -2.5, -3.0], 0.25,
                     id="lower-bend-point-moves"),
        pytest.param([1.0, 0.0, -3.0, -1.0, 3.0, 3.0],
                     [0.0, 0.0, -3.0, -1.0, 3.0, 3.0], 0.5,
                     id="lower-later-tie"),
        pytest.param([0.0, 3.0, -3.0], [0.0, 4.0, -3.0], 1.0,
                     id="lower-earlier-break"),
        pytest.param([1.0, 0.0, 1.0, 3.0, 3.0], [1.0, 0.0, 1.0, 2.5, 3.0],
                     0.25, id="final-upper-break"),
        pytest.param([0.0, 1.0, -2.0, 0.0, -1.0], [0.0, 2.0, -2.0, 0.0, -1.0],
                     2.0, id="final-lower-break"),
    ])
    def test_plan_of_a_near_input_misses(self, a, b, lam):
        _assert_tv1d_is_reference(np.array(a), lam)
        with _counting_scans() as scan:
            _assert_tv1d_is_reference(np.array(b), lam)
        assert scan.call_count == 1

    def test_pinned_inputs_reach_their_cases(self):
        # the tied input's first segment takes the last tie, +0.0, though
        # most tied quotients are -0.0, and its last segment has one point
        segs = tv1d_segments_reference(self._TIED, 0.0)
        assert segs[0][:2] == (0, 17) and segs[0][2].hex() == "0x0.0p+0"
        assert segs[-1][:2] == (18, 19)
        segs = tv1d_segments_reference(np.array([0.0, 0.0, 0.0, 10.0]), 1.0)
        assert segs[-1][:2] == (3, 4)

    def test_overflowing_tube_bounds_always_scan(self):
        # r + step overflows at the first point while r_n = 1 stays finite:
        # the scan accepts the input, and the check of the plan the scan
        # made from it misses, so every call scans
        u = np.array([1.7e308, -1.7e308, 1.0])
        with np.errstate(over="ignore"), _counting_scans() as scan:
            for _ in range(3):
                _assert_tv1d_is_reference(u, 1e308)
        assert scan.call_count == 3

    def test_bounds_whose_differences_overflow_always_scan(self):
        # the running sums are [1.5e308, 0, 1], so every tube bound and
        # every difference of two is finite (the widest, max rp - min rm,
        # is 1.5e308 + 1); but the check's guard 2 * (max |r| + step) =
        # 3e308 is not, so the check refuses the input and leaves it to
        # the scan
        u = np.array([1.5e308, -1.5e308, 1.0])
        with np.errstate(over="ignore"), _counting_scans() as scan:
            for _ in range(3):  # the value's jumps overflow, as ever
                _assert_tv1d_is_reference(u, 1.0)
        assert scan.call_count == 3
        with np.errstate(over="raise"):  # the check itself overflows nothing
            assert prox_module._tv1d_planned(
                prox_module._tv1d_plan, u, 1.0) is None

    def test_denoising_runs_scan_rarely(self):
        # weighted piecewise-constant signals as segment-1d denoises them:
        # pg keeps the bends of one prox call in the next on most iterations
        calls = 0
        with _counting_scans() as scan:
            for seed in range(4):
                rng = np.random.default_rng(seed)
                n = 200
                jumps = np.sort(rng.choice(np.arange(1, n), 8, replace=False))
                truth = np.repeat(rng.uniform(-2.0, 2.0, 9),
                                  np.diff(np.concatenate(([0], jumps, [n]))))
                weights = np.where(rng.random(n) < 0.5, 1.0, 0.3)
                y = truth + 0.2 * rng.standard_normal(n)
                reg = Regularizer.tv1d(n, 1.0)
                problem = CompositeProblem(
                    least_squares_oracle(np.diag(weights), weights * y), reg)
                with mock.patch.object(reg, "prox", wraps=reg.prox) as prox:
                    _, log = run_solver("pg", problem, SolverConfig(
                        stop_tol=1e-10, max_iter=50_000))
                assert log.converged
                calls += prox.call_count
        assert calls > 500
        assert scan.call_count <= 0.2 * calls


class TestPottsBlockEdges:
    """Sizes around the DP's blocks of 16 right ends, on inputs with exact
    ties, give the reference loop's segments."""

    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 48, 49])
    @pytest.mark.parametrize("step", [0.25, 0.5, 1.0, 2.0, 4.5])
    def test_matches_reference(self, n, step):
        rng = np.random.default_rng(n)
        runs = np.repeat(rng.integers(-4, 5, n) / 2.0, rng.integers(1, 20, n))
        for u in (rng.integers(-3, 4, n).astype(float), runs[:n],
                  np.zeros(n), np.tile([1.0, -1.0], n)[:n]):
            assert _hex_segments(_potts_segments(u, step)) == _hex_segments(
                potts_segments_reference(u, step))

    # digit strings, found by search, whose exact ties reach the tie rule:
    # several breakpoints before a block tie with different segment counts,
    # or one before the block ties with one inside it (with equal or with
    # different segment counts)
    @pytest.mark.parametrize("digits, step", [
        ("01210121012101210121012101210121012", 0.5),
        ("01201201201201201201201201", 1 / 3),
        ("12120222221102110220", 1 / 3),
        ("0110110010111101001110000011101", 0.25),
        ("12011201120112011201", 1 / 3),
        ("0021221010021101200211222100012011120", 0.375),
    ])
    def test_tie_rule_across_blocks(self, digits, step):
        u = np.array([float(d) for d in digits])
        assert _hex_segments(_potts_segments(u, step)) == _hex_segments(
            potts_segments_reference(u, step))

    # runs of quarter-integers at a small step: the optimal or a tied last
    # breakpoint often lies inside the right end's own block, so the DP
    # scores some rows' in-block breakpoints and rules others out by its
    # bound
    @pytest.mark.parametrize("block", [1, 2, 3, 16])
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)),
                    min_size=2, max_size=30),
           st.sampled_from([1 / 64, 1 / 16, 0.125, 0.25, 0.5]))
    def test_in_block_breakpoints_match_reference(self, block, runs, step):
        u = np.repeat([q / 4.0 for q, _ in runs], [k for _, k in runs])
        with mock.patch.object(prox_module, "_POTTS_BLOCK", block):
            segs = _potts_segments(u, step)
        assert _hex_segments(segs) == _hex_segments(
            potts_segments_reference(u, step))

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_any_block_size(self, monkeypatch, block):
        monkeypatch.setattr(prox_module, "_POTTS_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in (2, 7, 40):
            for u in (rng.integers(-3, 4, n).astype(float),
                      rng.standard_normal(n)):
                for step in (0.25, 1.0):
                    assert _hex_segments(_potts_segments(u, step)) == (
                        _hex_segments(potts_segments_reference(u, step)))


class TestSegmentsToResult:
    """A boundary between equal values is no jump, signed zeros included."""

    @pytest.mark.parametrize("segs, bits", [
        ([(0, 2, -0.0), (2, 3, 0.0)], [0, 0]),
        ([(0, 1, 0.0), (1, 3, -0.0), (3, 4, 1.0)], [0, 0, 1]),
        ([(0, 1, 2.5), (1, 2, 2.5), (2, 4, -1.0)], [0, 1, 0]),
        ([(0, 4, 3.0)], [0, 0, 0]),
        ([(0, 1, 1.0), (1, 2, -1.0), (2, 3, 1.0)], [1, 1]),
    ])
    def test_bits_and_bytes(self, segs, bits):
        n = segs[-1][1]
        x = _segments_to_point(segs, n)
        pattern = _jump_pattern(x)
        want_x, want_pattern = segments_to_result_reference(segs, n)
        assert x.dtype == np.float64 and x.tobytes() == want_x.tobytes()
        assert pattern.bits.tolist() == [b == 1 for b in bits]
        assert pattern == want_pattern

    @settings(max_examples=100, deadline=None)
    @given(_signals(), _steps, _lams)
    def test_tv1d_value_is_regularizer_value(self, u, step, lam):
        res = prox_tv1d(u, step, lam)
        assert res.value.hex() == Regularizer.tv1d(u.size, lam).value(
            res.point).hex()


def _assert_prox_ignores_svd_signs(a, t):
    """prox_nuclear at threshold t, and prox_rank with gamma * lam = t**2 / 2
    (threshold sqrt(2 * gamma * lam) = t), give the bytes of the same
    computation on loop-signed singular vectors."""
    w, s, vt = svd_fixed_signs_reference(a)
    kept = s > t
    for prox, s_new in ((prox_nuclear, np.where(kept, s - t, 0.0)),
                        (prox_rank, np.where(kept, s, 0.0))):
        res = prox(a, 1.0, t if prox is prox_nuclear else t * t / 2.0)
        want = (w * s_new) @ vt
        assert res.point.tobytes() == want.tobytes()
        assert res.pattern.packed_hex() == _rank_pattern_hex(a.shape, kept)


def _rank_pattern_hex(shape, kept):
    bits = np.ones(min(shape) + 1, dtype=np.uint8)
    bits[int(kept.sum())] = 0
    return np.packbits(bits, bitorder="little").tobytes().hex()


@st.composite
def _matrices(draw):
    """Products of every rank at three scales, with a threshold t between
    1e-8 and 1.2 times the largest singular value."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    a *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    s_max = np.linalg.svd(a, compute_uv=False)[0] or 1.0  # 1 for zero
    return a, s_max * 10.0 ** draw(st.floats(-8.0, 0.08))


class TestValueContract:
    """res.value is Regularizer.value at res.point, from the prox's branch."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["l1", "l0", "tv1d", "potts1d"]), _signals(),
           _steps, _lams)
    def test_vector_kinds_bit_for_bit(self, kind, u, step, lam):
        reg = getattr(Regularizer, kind)(u.size, lam)
        res = reg.prox(u, step)
        assert res.value.hex() == reg.value(res.point).hex()

    @settings(max_examples=100, deadline=None)
    @given(_matrices(), _lams)
    def test_rank_bit_for_bit(self, case, lam):
        # the threshold keeps no singular value near Regularizer.value's
        # 1e-10 relative cut (see test_rank_is_the_kept_count)
        a, t = case
        reg = Regularizer.rank(*a.shape, lam)
        res = reg.prox(a, t * t / (2.0 * lam))
        assert res.value.hex() == reg.value(res.point).hex()

    @settings(max_examples=100, deadline=None)
    @given(_matrices(), _lams)
    def test_nuclear_within_roundoff(self, case, lam):
        a, t = case
        reg = Regularizer.nuclear(*a.shape, lam)
        res = reg.prox(a, t / lam)
        assert res.value == pytest.approx(reg.value(res.point), rel=1e-12,
                                          abs=0.0)

    def test_rank_is_the_kept_count(self):
        # diag(1, 1e-12) has rank 2, the prox's count; Regularizer.value
        # drops the singular value below 1e-10 * sigma_max
        res = prox_rank(np.diag([1.0, 1e-12]), 1e-30)
        assert res.value == 2.0 and list(res.pattern.bits) == [1, 1, 0]
        assert Regularizer.rank(2, 2).value(res.point) == 1.0

    def test_value_is_computed_once(self):
        res = prox_l1(np.array([3.0, -0.5, 2.0]), 0.5, lam=2.0)
        assert res.value == 6.0
        res.point[0] = 100.0  # a later read returns the kept value
        assert res.value == 6.0

    def test_result_without_value(self):
        # a given pattern, or None, is kept as it is
        pattern = pattern_of(np.zeros(2), Regularizer.l1(2).collection)
        res = ProxResult(np.zeros(2), pattern)
        assert res.value is None and res.pattern is pattern
        assert ProxResult(np.zeros(2), None).pattern is None


def _segmented_reference(segments):
    """The reference pattern of a 1-D kernel from its segments reference."""
    return lambda u, gamma, lam: segments_to_result_reference(
        segments(u, gamma * lam), u.size)[1]


# kernel -> its output's pattern at (u, gamma, lam), from tests/oracles.py
_REFERENCE_PATTERN = {
    prox_l1: lambda u, gamma, lam: SparsityPattern(
        prox_l1_reference(u, gamma, lam)[1]),
    prox_l0: lambda u, gamma, lam: pattern_of_reference(
        prox_l0(u, gamma, lam).point, Regularizer.l0(u.size).collection),
    prox_tv1d: _segmented_reference(tv1d_segments_reference),
    prox_potts1d: _segmented_reference(potts_segments_reference),
    prox_nuclear: lambda u, gamma, lam: prox_nuclear_reference(
        u, gamma, lam).pattern,
    prox_rank: lambda u, gamma, lam: prox_rank_reference(
        u, gamma, lam).pattern,
}


class TestMaskAndPattern:
    """Each kernel builds its result's SparsityPattern once, from its
    branch mask: 1-D bool bits, read-only, equal to the checked
    constructor's pattern of a copy and to the tests/oracles.py pattern."""

    @pytest.mark.parametrize("kernel, u", [
        (prox_l1, np.array([3.0, -0.5, 2.0])),
        (prox_l0, np.array([3.0, -0.5, 2.0])),
        (prox_tv1d, np.array([1.0, 1.1, 5.0, 5.2])),
        (prox_potts1d, np.array([1.0, 1.1, 5.0, 5.2])),
        (prox_nuclear, np.diag([3.0, 0.1])),
        (prox_rank, np.diag([3.0, 0.1])),
    ])
    def test_pattern_is_built_once_from_the_read_only_mask(self, kernel, u):
        res = kernel(u, 0.5, 1.0)
        bits = res.pattern.bits
        assert bits.ndim == 1 and bits.dtype == bool
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[0] = not bits[0]
        assert res.pattern == SparsityPattern(bits.copy())
        assert res.pattern == _REFERENCE_PATTERN[kernel](u, 0.5, 1.0)


class TestInputGuard:
    """_check_input: one sum of squares, and the full scan when it overflows."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        vector = np.array([1.0, bad, 2.0])
        matrix = np.arange(12.0).reshape(3, 4)
        matrix[2, 1] = bad
        for u in (vector, matrix, matrix.T, [bad], np.float64(bad)):
            with pytest.raises(ValueError, match="finite"):
                _check_input(u, 1.0)
        with pytest.raises(ValueError, match="finite"):
            prox_l1(vector, 1.0)
        with pytest.raises(ValueError, match="finite"):
            Regularizer.nuclear(3, 4).prox(matrix, 1.0)

    def test_accepts_overflowing_sum_of_squares(self):
        u = np.array([1e200, 1e200])
        with np.errstate(over="ignore"):
            assert np.dot(u, u) == np.inf  # so the full scan decides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _check_input(u, 1.0).tobytes() == u.tobytes()
            assert _check_input(u.reshape(1, 2), 1.0).shape == (1, 2)
            assert np.array_equal(prox_l1(u, 1.0).point, u - 1.0)


class TestLamGuard:
    """lam enters every exported kernel checked: finite and nonnegative;
    gamma positive and finite."""

    KERNELS = [(prox_l1, [1.0, -0.5]), (prox_l0, [1.0, -0.5]),
               (prox_tv1d, [1.0, -0.5, 0.2]), (prox_potts1d, [1.0, -0.5, 0.2]),
               (prox_nuclear, np.eye(2)), (prox_rank, np.eye(2))]

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("prox, u", KERNELS)
    def test_rejected(self, prox, u, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no sqrt warning before the check
            with pytest.raises(ValueError, match="lam"):
                prox(np.array(u), 1.0, lam)

    @pytest.mark.parametrize("prox, u", KERNELS)
    def test_zero_is_identity(self, prox, u):
        # up to the roundoff of running sums (tv1d) and of an SVD
        u = np.array(u)
        res = prox(u, 1.0, 0.0)
        assert np.allclose(res.point, u, rtol=0.0, atol=1e-12)
        assert res.value == 0.0

    def test_gamma_checked_first(self):
        with pytest.raises(ValueError, match="gamma"):
            prox_l1([1.0], 0.0, -1.0)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    @pytest.mark.parametrize("prox, u", KERNELS)
    def test_non_finite_gamma_rejected(self, prox, u, gamma, lam):
        # gamma = inf with lam = 0 would make the step inf * 0 = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="gamma"):
                prox(np.array(u), gamma, lam)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_regularizer_needs_positive_finite(self, lam):
        with pytest.raises(ValueError, match="lam"):
            Regularizer.l1(3, lam=lam)


class TestRunningSumsOverflow:
    """Finite inputs whose running sums overflow are rejected at entry."""

    @pytest.mark.parametrize("prox, u", [
        (prox_tv1d, [1e308, 1e308, -1e308]),
        (prox_potts1d, [1e200, 0.0]),
        # sum(u*u) is finite, n * sum(u*u) is not: the segment [0, 2) squares
        # 1.4e154, and without the check the DP merges all three values
        (prox_potts1d, [7e153, 7e153, 0.0]),
    ])
    def test_rejected(self, prox, u):
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="running sums"):
            prox(np.array(u), 1.0)

    def test_large_finite_sums_still_accepted(self):
        u = np.array([1.5e308, -1.5e308, 1.0])  # running sums stay finite
        assert np.array_equal(prox_tv1d(u, 1.0).point, [1.5e308, -1.5e308, 0.0])
        u = np.array([1e150, -1e150, 1e150])
        assert np.array_equal(prox_potts1d(u, 1.0).point, u)


class TestNuclearAndRank:
    def test_diagonal_soft_threshold(self):
        res = prox_nuclear(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(res.point, np.diag([2.0, 0.0]), atol=1e-12)
        assert list(res.pattern.bits) == [1, 0, 1]  # rank 1

    def test_zero_matrix(self):
        res = prox_nuclear(np.zeros((3, 2)), 1.0)
        assert np.array_equal(res.point, np.zeros((3, 2)))
        assert list(res.pattern.bits) == [0, 1, 1]  # rank 0

    def test_large_threshold_kills_everything(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((4, 3))
        smax = np.linalg.svd(u, compute_uv=False)[0]
        res = prox_nuclear(u, 1.0, lam=smax * 1.01)
        assert np.allclose(res.point, 0.0)
        assert res.pattern.bits[0] == 0

    def test_rank_hard_threshold(self):
        res = prox_rank(np.diag([3.0, 0.5]), 1.0)
        assert np.allclose(res.point, np.diag([3.0, 0.0]), atol=1e-12)
        assert list(res.pattern.bits) == [1, 0, 1]

    def test_rank_keeps_everything_above_threshold(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 4)) + 5 * np.eye(4)
        s = np.linalg.svd(u, compute_uv=False)
        gamma_lam = 0.4 * s[-1] ** 2  # sqrt(2*g*l) < s_min
        res = prox_rank(u, 1.0, lam=gamma_lam)
        assert np.allclose(res.point, u, atol=1e-10)

    def test_svd_sign_convention_reproducible(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 5))
        a = prox_nuclear(u, 0.5)
        b = prox_nuclear(u.copy(), 0.5)
        assert np.array_equal(a.point, b.point)

    # The prox uses LAPACK's singular vectors as returned; these pin its
    # outputs to the same computation on the vectors signed by the loop
    # convention in tests/oracles.py, which the package used to apply.
    @pytest.mark.parametrize("shape", [(6, 5), (5, 6), (20, 20), (50, 50),
                                       (1, 4), (4, 1), (0, 3), (3, 0)])
    def test_svd_signs_match_loop(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        s = np.linalg.svd(a, compute_uv=False)
        t = float(np.median(s)) if s.size else 1.0  # keeps about half
        for a in (a, a[:, :1] * np.ones(shape)):  # and a rank-deficient one
            _assert_prox_ignores_svd_signs(a, t)

    def test_svd_signs_tied_magnitudes_match_loop(self, monkeypatch):
        # the loop convention flips columns 0 and 4 here (ties led by a
        # negative entry, by a positive one, zeros, -0.0): the outputs do
        # not change
        u = np.array([[-0.5, 0.5, 0.0, -0.0, 0.25],
                      [0.5, -0.5, 0.0, 0.0, -1.0],
                      [0.5, 0.5, 0.0, -0.0, 1.0],
                      [-0.5, -0.5, 0.0, 0.0, 0.0]])
        s = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        vt = np.arange(25.0).reshape(5, 5) - 12.0
        monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices: (
            u.copy(), s.copy(), vt.copy()))
        signed = svd_fixed_signs_reference(np.zeros((4, 5)))[0]
        assert np.array_equal(signed[:, [0, 4]], -u[:, [0, 4]])
        assert np.array_equal(signed[:, 1:4], u[:, 1:4])
        _assert_prox_ignores_svd_signs(np.zeros((4, 5)), 2.5)

    def test_rank_stability_weyl(self):
        # singular values move by at most the spectral norm of the edit
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.standard_normal((8, 6))
            e = rng.standard_normal((8, 6))
            e *= rng.uniform(0, 0.5) / np.linalg.norm(e, 2)
            delta = np.linalg.norm(e, 2)
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(a + e, compute_uv=False)
            assert np.all(np.abs(sa - sb) <= delta + 1e-10)


@st.composite
def _spectral_cases(draw):
    """(u, gamma, t): 1x1, wide, tall and square products of every rank, of
    either sign (a zero product is all +0.0 or all -0.0) with signed zeros
    mixed in, and a threshold t that is 0 (lam = 0), exactly a singular
    value, or drawn between 1e-8 and 1.2 times the largest one. gamma is a
    power of two, so t / gamma and t * t / (2 * gamma) give the soft and the
    hard threshold t exactly."""
    rows, cols = draw(st.sampled_from([1, 2, 5, 8])), draw(
        st.sampled_from([1, 2, 5, 8]))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    a *= draw(st.sampled_from([-1e3, -1.0, 1e-3, 1.0]))
    a[rng.random(a.shape) < draw(st.sampled_from([0.0, 0.3]))] = draw(
        st.sampled_from([0.0, -0.0]))
    s = np.linalg.svd(a, full_matrices=False)[1]
    t = draw(st.sampled_from(["zero", "tie", "drawn"]))
    if t == "zero":
        t = 0.0
    elif t == "tie":
        t = draw(st.sampled_from(s.tolist()))
    else:
        t = (s[0] or 1.0) * 10.0 ** draw(st.floats(-8.0, 0.08))
    return a, draw(st.sampled_from([0.25, 1.0, 2.0])), t


class TestSpectralMatchesReference:
    """prox_nuclear and prox_rank, the l1 and l0 rules on the singular
    values, give the bytes of their former bodies in tests/oracles.py:
    point, pattern bits and value."""

    @settings(max_examples=300, deadline=None)
    @given(_spectral_cases())
    def test_point_pattern_and_value_bytes(self, case):
        a, gamma, t = case
        for prox, reference, lam in (
                (prox_nuclear, prox_nuclear_reference, t / gamma),
                (prox_rank, prox_rank_reference, t * t / (2.0 * gamma))):
            res, want = prox(a, gamma, lam), reference(a, gamma, lam)
            assert res.point.tobytes() == want.point.tobytes()
            assert res.pattern.bits.tobytes() == want.pattern.bits.tobytes()
            assert res.value.hex() == want.value.hex()

    def test_ties_go_to_the_zero_branch(self):
        a = np.diag([3.0, 1.0, 1.0])
        nuclear, rank = prox_nuclear(a, 1.0, 1.0), prox_rank(a, 0.5, 1.0)
        assert nuclear.pattern == rank.pattern
        assert list(rank.pattern.bits) == [1, 0, 1, 1]
        assert (nuclear.value, rank.value) == (2.0, 1.0)


class TestResidual:
    def test_zero_at_prox(self):
        rng = np.random.default_rng(6)
        for kind, make in [("l1", Regularizer.l1), ("tv1d", Regularizer.tv1d)]:
            for _ in range(50):
                n = int(rng.integers(2, 40))
                reg = make(n, rng.uniform(0.3, 2.0))
                u = rng.standard_normal(n)
                gamma = rng.uniform(0.3, 2.0)
                x = reg.prox(u, gamma).point
                assert prox_optimality_residual(reg, u, gamma, x) <= 1e-10
        for _ in range(25):
            reg = Regularizer.nuclear(7, 5, rng.uniform(0.3, 2.0))
            u = rng.standard_normal((7, 5))
            gamma = rng.uniform(0.3, 2.0)
            x = reg.prox(u, gamma).point
            assert prox_optimality_residual(reg, u, gamma, x) <= 1e-10

    def test_positive_away_from_prox(self):
        reg = Regularizer.l1(3, 1.0)
        u = np.array([3.0, -4.0, 5.0])  # all |u_i| > gamma*lam + 1
        assert prox_optimality_residual(reg, u, 1.0, u) > 0.5

    def test_tv_constant_case(self):
        reg = Regularizer.tv1d(4, 1.0)
        u = np.full(4, 2.5)
        assert prox_optimality_residual(reg, u, 1.0, u) == 0.0

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            prox_optimality_residual(Regularizer.l0(2, 1.0), np.ones(2), 1.0,
                                     np.ones(2))


class TestSharedProperties:
    KINDS = ["l1", "l0", "tv1d", "potts1d"]

    def _reg(self, kind, n, lam):
        return getattr(Regularizer, kind)(n, lam)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=10),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=10),
    )
    def test_l1_nonexpansive(self, a, b):
        n = min(len(a), len(b))
        u, v = np.array(a[:n]), np.array(b[:n])
        pu = prox_l1(u, 0.7).point
        pv = prox_l1(v, 0.7).point
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_objective_dominance_all_kinds(self):
        # the prox point beats arbitrary candidates on the prox objective,
        # including for the nonconvex kinds
        rng = np.random.default_rng(7)
        for kind in self.KINDS:
            for _ in range(20):
                n = int(rng.integers(2, 10))
                reg = self._reg(kind, n, rng.uniform(0.5, 1.5))
                u = rng.standard_normal(n)
                gamma = rng.uniform(0.3, 2.0)
                x = reg.prox(u, gamma).point
                fx = reg.value(x) + np.sum((x - u) ** 2) / (2 * gamma)
                for _ in range(15):
                    y = rng.standard_normal(n) * rng.uniform(0.5, 2)
                    fy = reg.value(y) + np.sum((y - u) ** 2) / (2 * gamma)
                    assert fx <= fy + 1e-10
        for kind in ("nuclear", "rank"):
            for _ in range(10):
                reg = getattr(Regularizer, kind)(5, 4, rng.uniform(0.5, 1.5))
                u = rng.standard_normal((5, 4))
                gamma = rng.uniform(0.3, 2.0)
                x = reg.prox(u, gamma).point
                fx = reg.value(x) + np.sum((x - u) ** 2) / (2 * gamma)
                for _ in range(10):
                    y = rng.standard_normal((5, 4))
                    fy = reg.value(y) + np.sum((y - u) ** 2) / (2 * gamma)
                    assert fx <= fy + 1e-10

    def test_flags_match_exact_membership(self):
        rng = np.random.default_rng(8)
        for kind in self.KINDS:
            for _ in range(30):
                n = int(rng.integers(2, 12))
                reg = self._reg(kind, n, rng.uniform(0.5, 1.5))
                u = rng.standard_normal(n)
                if rng.random() < 0.3:
                    u = np.round(u)
                res = reg.prox(u, rng.uniform(0.3, 2.0))
                assert res.pattern == pattern_of(res.point, reg.collection)


class TestRegularizer:
    def test_each_kind_builds_its_collection(self):
        for kind, ambient, collection_kind, size in (
            ("l1", 4, "coordinate_zero", 4),
            ("l0", 4, "coordinate_zero", 4),
            ("tv1d", 4, "adjacent_equal", 3),
            ("potts1d", 4, "adjacent_equal", 3),
            ("nuclear", (3, 5), "rank_level", 4),
            ("rank", (3, 5), "rank_level", 4),
        ):
            reg = Regularizer(kind, 2.0, ambient)
            coll = reg.collection
            assert (reg.kind, reg.lam) == (kind, 2.0)
            assert (coll.kind, coll.ambient, len(coll)) == (
                collection_kind, ambient, size)
            with pytest.raises(ValueError, match="lam must be positive"):
                Regularizer(kind, 0.0, ambient)
        with pytest.raises(ValueError, match="unknown regularizer kind"):
            Regularizer("l2", 2.0, 4)

    def test_values(self):
        assert Regularizer.l1(3, 2.0).value([1.0, -2.0, 0.0]) == 6.0
        assert Regularizer.l0(3, 2.0).value([1.0, -2.0, 0.0]) == 4.0
        assert Regularizer.tv1d(3, 1.0).value([0.0, 2.0, 2.0]) == 2.0
        assert Regularizer.potts1d(3, 1.0).value([0.0, 2.0, 2.0]) == 1.0
        assert Regularizer.nuclear(2, 2, 1.0).value(np.diag([2.0, 1.0])) == pytest.approx(3.0)
        assert Regularizer.rank(2, 2, 1.0).value(np.diag([2.0, 0.0])) == 1.0
