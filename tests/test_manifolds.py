import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import project_reference
from proxident.manifolds import (
    ManifoldCollection,
    ManifoldSpec,
    SparsityPattern,
    StructuredPoint,
    adjacent_pairs,
    coordinate_zeros,
    pattern_leq,
    pattern_of,
    project,
    rank_levels,
)


class TestPatternOf:
    def test_coordinate_definition(self):
        coll = coordinate_zeros(2)
        assert pattern_of([0.0, 1.5], coll) == SparsityPattern([0, 1])

    def test_zero_belongs_everywhere(self):
        coll = coordinate_zeros(5)
        assert pattern_of(np.zeros(5), coll) == SparsityPattern([0] * 5)

    def test_adjacent_definition(self):
        coll = adjacent_pairs(3)
        assert pattern_of([2.0, 2.0, 3.0], coll) == SparsityPattern([0, 1])

    def test_tolerance_mode(self):
        coll = coordinate_zeros(2)
        assert pattern_of([1e-13, 1e-3], coll, tol=1e-12) == SparsityPattern([0, 1])
        assert pattern_of([1e-13, 1e-3], coll, tol="auto") == SparsityPattern([0, 1])
        # exact mode keeps the tiny entry
        assert pattern_of([1e-13, 1e-3], coll) == SparsityPattern([1, 1])

    def test_rank_requires_tolerance(self):
        coll = rank_levels(3, 3)
        with pytest.raises(ValueError):
            pattern_of(np.eye(3), coll)
        pat = pattern_of(np.diag([2.0, 1.0, 0.0]), coll, tol="auto")
        assert pat == SparsityPattern([1, 1, 0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pattern_of([1.0, 2.0, 3.0], coordinate_zeros(2))


class TestProject:
    def test_coordinate(self):
        coll = coordinate_zeros(2)
        assert np.array_equal(project(coll, [0], [3.0, 4.0]), [0.0, 4.0])

    def test_adjacent_chain_is_mean(self):
        # chained equalities x0=x1=x2: the projection is the group mean,
        # cross-checked as the minimizer of ||y - x||^2 over the flat
        coll = adjacent_pairs(3)
        x = np.array([1.0, 2.0, 3.0])
        got = project(coll, [0, 1], x)
        assert np.allclose(got, [2.0, 2.0, 2.0])
        grid = np.linspace(-1, 5, 601)
        best = grid[np.argmin([np.sum((np.full(3, t) - x) ** 2) for t in grid])]
        assert abs(best - 2.0) < 1e-9

    def test_rank_truncation_matches_eckart_young(self):
        coll = rank_levels(2, 2)
        x = np.diag([3.0, 1.0])
        got = project(coll, [1], x)  # level r=1
        assert np.allclose(got, np.diag([3.0, 0.0]), atol=1e-12)
        # exhaustive rank-1 check: best u v^T over a coarse grid beats nothing
        rng = np.random.default_rng(0)
        best = np.inf
        for _ in range(2000):
            u = rng.standard_normal(2)
            v = rng.standard_normal(2)
            uv = np.outer(u, v)
            scale = np.sum(uv * x) / max(np.sum(uv * uv), 1e-12)
            best = min(best, np.linalg.norm(scale * uv - x))
        assert np.linalg.norm(got - x) <= best + 1e-6

    def test_incompatible_rank_subset(self):
        coll = rank_levels(3, 3)
        with pytest.raises(ValueError):
            project(coll, [0, 1], np.eye(3))

    def test_idempotent_and_membership(self):
        rng = np.random.default_rng(1)
        coll = ManifoldCollection(
            [ManifoldSpec("coordinate_zero", 0),
             ManifoldSpec("adjacent_equal", 2),
             ManifoldSpec("adjacent_equal", 3),
             ManifoldSpec("coordinate_zero", 4)],
            5,
        )
        for _ in range(20):
            x = rng.standard_normal(5)
            idx = [i for i in range(4) if rng.random() < 0.6]
            p1 = project(coll, idx, x)
            p2 = project(coll, idx, p1)
            assert np.allclose(p1, p2, atol=1e-12)
            pat = pattern_of(p2, coll, tol=1e-10)
            assert all(pat.bits[i] == 0 for i in idx)

    def test_chain_touching_zero_collapses(self):
        coll = ManifoldCollection(
            [ManifoldSpec("coordinate_zero", 1),
             ManifoldSpec("adjacent_equal", 1)],
            3,
        )
        got = project(coll, [0, 1], np.array([5.0, 6.0, 7.0]))
        assert np.array_equal(got, [0.0, 0.0, 7.0])


def _vector_collection(n, layout, rng):
    """coordinate / adjacent / mixed specs over R^n in a shuffled order."""
    specs = []
    if layout in ("coordinate", "mixed"):
        specs += [ManifoldSpec("coordinate_zero", i) for i in range(n)]
    if layout in ("adjacent", "mixed"):
        specs += [ManifoldSpec("adjacent_equal", i) for i in range(1, n)]
    order = rng.permutation(len(specs))
    return ManifoldCollection([specs[i] for i in order], n)


def _assert_same_bytes(coll, indices, x):
    want = project_reference(coll, indices, x)
    for idx in (list(indices), np.array(indices, dtype=np.int64)):
        got = project(coll, idx, x)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included


_values = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestProjectMatchesLoop:
    """The vectorised project equals the loop in tests/oracles.py byte for
    byte, on duplicate and unsorted selections."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_small_collections(self, data):
        n = data.draw(st.integers(2, 24))
        layout = data.draw(
            st.sampled_from(["coordinate", "adjacent", "mixed"])
        )
        coll = _vector_collection(
            n, layout, np.random.default_rng(data.draw(st.integers(0, 99)))
        )
        indices = data.draw(st.lists(st.integers(0, len(coll) - 1),
                                     max_size=2 * len(coll)))
        x = np.array(data.draw(st.lists(_values, min_size=n, max_size=n)))
        _assert_same_bytes(coll, indices, x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(9, 400),
           st.floats(0.5, 1.0), st.floats(0.0, 0.05))
    def test_long_chains(self, seed, n, p_link, p_zero):
        # long runs of selected equalities: groups past numpy's 8-wide
        # unrolled and 128-element blocked pairwise summation
        rng = np.random.default_rng(seed)
        coll = _vector_collection(n, "mixed", rng)
        keep = np.array([
            rng.random() < (p_link if s.kind == "adjacent_equal" else p_zero)
            for s in coll.specs
        ])
        indices = rng.permutation(np.flatnonzero(keep))
        indices = np.concatenate([indices, indices[: indices.size // 3]])
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, size=n)
        _assert_same_bytes(coll, indices.tolist(), x)

    def test_group_of_nine_is_not_reduceat(self):
        # a 9-element chain where a left-to-right or first-element-seeded sum
        # rounds differently from numpy's pairwise mean
        coll = adjacent_pairs(9)
        x = np.array([3.0, 0.5, 1e16, 3.0, 0.5, -1e16, 0.5, 3.0, 3.0])
        assert project(coll, range(8), x)[0] == x.mean() == 15.0 / 9.0
        _assert_same_bytes(coll, range(8), x)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_range_errors(self, data):
        n = data.draw(st.integers(2, 12))
        coll = _vector_collection(n, "mixed", np.random.default_rng(n))
        indices = data.draw(st.lists(st.integers(-5, len(coll) + 5),
                                     min_size=1, max_size=8))
        x = np.ones(n)
        try:
            want = project_reference(coll, indices, x)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                project(coll, indices, x)
            assert str(got.value) == str(exc)
        else:
            assert project(coll, indices, x).tobytes() == want.tobytes()

    def test_rank_levels_match(self):
        coll = rank_levels(4, 3)
        x = np.random.default_rng(3).standard_normal((4, 3))
        for indices in ([0], [2], [3, 3], [1, 2], []):
            try:
                want = project_reference(coll, indices, x)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    project(coll, indices, x)
            else:
                assert project(coll, indices, x).tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="spec index 4 out of range"):
            project(coll, [4, 9], x)


class TestPatternOrder:
    def test_examples(self):
        assert pattern_leq(SparsityPattern([0, 1]), SparsityPattern([1, 1]))
        assert not pattern_leq(SparsityPattern([1, 0]), SparsityPattern([0, 1]))
        p = SparsityPattern([0, 1, 0])
        assert pattern_leq(p, p)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pattern_leq(SparsityPattern([0]), SparsityPattern([0, 1]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=12), st.data())
    def test_partial_order(self, bits, data):
        n = len(bits)
        a = SparsityPattern(bits)
        b = SparsityPattern(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        c = SparsityPattern(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        assert pattern_leq(a, a)
        if pattern_leq(a, b) and pattern_leq(b, a):
            assert a == b
        if pattern_leq(a, b) and pattern_leq(b, c):
            assert pattern_leq(a, c)


class TestCollections:
    def test_no_duplicates(self):
        with pytest.raises(ValueError):
            ManifoldCollection(
                [ManifoldSpec("coordinate_zero", 0)] * 2, 3
            )

    def test_no_kind_mixing_with_rank(self):
        with pytest.raises(ValueError):
            ManifoldCollection(
                [ManifoldSpec("rank_level", 1),
                 ManifoldSpec("coordinate_zero", 0)],
                (3, 3),
            )

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            ManifoldCollection([ManifoldSpec("coordinate_zero", 5)], 3)
        with pytest.raises(ValueError):
            ManifoldCollection([ManifoldSpec("adjacent_equal", 0)], 3)
        with pytest.raises(ValueError):
            ManifoldCollection([ManifoldSpec("rank_level", 4)], (3, 3))

    def test_structure_count(self):
        coll = coordinate_zeros(4)
        assert coll.structure_count(SparsityPattern([0, 1, 1, 0])) == 2
        rcoll = rank_levels(3, 2)
        assert rcoll.structure_count(SparsityPattern([1, 0, 1])) == 1

    def test_packed_hex_little_endian(self):
        # bits 0..9 = 1,0,0,0,0,0,0,0,1,1 -> bytes 0x01, 0x03
        pat = SparsityPattern([1, 0, 0, 0, 0, 0, 0, 0, 1, 1])
        assert pat.packed_hex() == "0103"


class TestStructuredPoint:
    def test_prox_provenance_is_exact(self):
        pat = SparsityPattern([0, 1])
        sp = StructuredPoint(np.array([0.0, 1.0]), pat, "prox")
        assert sp.tol is None
        with pytest.raises(ValueError):
            StructuredPoint(np.zeros(2), pat, "prox", tol=1e-8)
        with pytest.raises(ValueError):
            StructuredPoint(np.zeros(2), pat, "guess")
