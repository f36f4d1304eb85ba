import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    flat_basis_reference,
    pattern_of_reference,
    project_reference,
)
from proxident.manifolds import (
    ManifoldCollection,
    SparsityPattern,
    adjacent_pairs,
    coordinate_zeros,
    pattern_leq,
    pattern_of,
    project,
    rank_levels,
)
from proxident.prox import Regularizer


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

    def test_tiny_entry_is_no_zero(self):
        coll = coordinate_zeros(2)
        assert pattern_of([1e-13, 1e-3], coll) == SparsityPattern([1, 1])

    def test_rank_collection_is_refused(self):
        coll = rank_levels(3, 3)
        for x in (np.eye(3), np.diag([2.0, 1.0, 0.0]), np.zeros((3, 3))):
            with pytest.raises(ValueError, match="^exact rank membership is "
                               "undecidable.*come from prox_nuclear and "
                               "prox_rank$"):
                pattern_of(x, coll)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pattern_of([1.0, 2.0, 3.0], coordinate_zeros(2))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-300, "bogus", "AUTO",
                                     True, [0.1], np.array(0.5), None,
                                     "auto", 1e-12])
    @pytest.mark.parametrize("point,collection", [
        ([0.0, 1.0], coordinate_zeros(2)),
        ([1.0, 1.0, 2.0], adjacent_pairs(3)),
        (np.eye(2), rank_levels(2, 2)),
    ])
    def test_invalid_tol_is_rejected_by_name(self, point, collection, tol):
        # pattern_of takes no tolerance: any tol, None and "auto" too, is
        # refused by Python's own argument check, which names it
        with pytest.raises(TypeError, match="'tol'"):
            pattern_of(point, collection, tol=tol)


_edge_values = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 5e-324, -5e-324, 1e-310, 1e-13,
                     -1e-12, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _same_outcome(got, want):
    """Both calls return equal patterns, or raise the same error."""
    try:
        expected = want()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            got()
        assert str(raised.value) == str(exc)
    else:
        actual = got()
        assert actual == expected
        assert actual.packed_hex() == expected.packed_hex()


class TestPatternOfMatchesLoop:
    """The array pattern_of equals the per-set loop in tests/oracles.py on
    vector collections, and refuses every point of a rank collection."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_vector_collections(self, data):
        n = data.draw(st.integers(2, 20))
        coll = data.draw(st.sampled_from([coordinate_zeros, adjacent_pairs]))(n)
        x = np.array(data.draw(st.lists(_edge_values, min_size=n, max_size=n)))
        _same_outcome(lambda: pattern_of(x, coll),
                      lambda: pattern_of_reference(x, coll))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rank_collections(self, data):
        rows, cols, rank = (data.draw(st.integers(1, 5)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        x *= data.draw(st.sampled_from([1.0, 1e-310, 0.0, -0.0]))
        # even the exact zero matrix: a rank pattern comes from a prox
        with pytest.raises(ValueError, match="^exact rank membership"):
            pattern_of(x, rank_levels(rows, cols))

    @pytest.mark.parametrize("x", [[np.inf, np.inf], [-np.inf, np.inf],
                                   [np.nan, 1.0]])
    def test_nan_difference_is_quiet(self, x):
        x = np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pattern_of(x, adjacent_pairs(2))
            assert got == SparsityPattern([1])
            assert got == pattern_of_reference(x, adjacent_pairs(2))

    def test_nan_and_signed_zero_bits(self):
        x = [np.nan, -0.0, 0.0, 5e-324]
        assert pattern_of(x, coordinate_zeros(4)) == SparsityPattern([1, 0, 0, 1])
        assert pattern_of(x, adjacent_pairs(4)) == SparsityPattern([1, 0, 1])


class TestProject:
    def test_coordinate(self):
        coll = coordinate_zeros(2)
        got = project(coll, SparsityPattern([0, 1]), [3.0, 4.0])
        assert np.array_equal(got, [0.0, 4.0])

    def test_adjacent_chain_is_mean(self):
        # chained equalities x0=x1=x2: the projection is the group mean,
        # cross-checked as the minimizer of ||y - x||^2 over the flat
        coll = adjacent_pairs(3)
        x = np.array([1.0, 2.0, 3.0])
        got = project(coll, SparsityPattern([0, 0]), x)
        assert np.allclose(got, [2.0, 2.0, 2.0])
        grid = np.linspace(-1, 5, 601)
        best = grid[np.argmin([np.sum((np.full(3, t) - x) ** 2) for t in grid])]
        assert abs(best - 2.0) < 1e-9

    def test_rank_collection_rejected(self):
        # {rank = 2} is not a flat: no Euclidean projection onto it exists
        # for diag(2, 0, 0), so rank patterns are refused
        coll = rank_levels(3, 3)
        for bits in ([1, 1, 0, 1], [0, 1, 1, 1], [1, 1]):
            with pytest.raises(ValueError, match="rank level sets are not"):
                project(coll, SparsityPattern(bits), np.diag([2.0, 0.0, 0.0]))

    def test_idempotent_and_membership(self):
        rng = np.random.default_rng(1)
        for coll in (coordinate_zeros(5), adjacent_pairs(5)):
            for _ in range(20):
                x = rng.standard_normal(5)
                pattern = SparsityPattern(rng.random(len(coll)) >= 0.6)
                p1 = project(coll, pattern, x)
                p2 = project(coll, pattern, p1)
                assert np.allclose(p1, p2, atol=1e-12)
                assert pattern_leq(pattern_of(p2, coll), pattern)


_VECTOR_KINDS = {"coordinate": coordinate_zeros, "adjacent": adjacent_pairs}


def _assert_same_bytes(coll, pattern, x):
    want = project_reference(coll, np.flatnonzero(pattern.bits == 0), x)
    got = project(coll, pattern, x)
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN included


_values = st.one_of(
    st.just(0.0), st.just(-0.0), st.just(np.nan), st.just(5e-324),
    st.just(-5e-324), st.floats(-1e-300, 1e-300),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestProjectMatchesLoop:
    """project equals the loop in tests/oracles.py byte for byte, with the
    loop given the indices of the pattern's 0 bits."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_small_collections(self, data):
        kind = data.draw(st.sampled_from(sorted(_VECTOR_KINDS)))
        n = data.draw(st.integers(1 if kind == "coordinate" else 2, 24))
        coll = _VECTOR_KINDS[kind](n)
        size = len(coll)
        bits = data.draw(st.one_of(
            st.just([0] * size), st.just([1] * size),
            st.lists(st.integers(0, 1), min_size=size, max_size=size)))
        x = np.array(data.draw(st.lists(_values, min_size=n, max_size=n)))
        _assert_same_bytes(coll, SparsityPattern(bits), x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(9, 400),
           st.sampled_from(sorted(_VECTOR_KINDS)), st.floats(0.5, 1.0))
    def test_long_chains(self, seed, n, kind, p_keep):
        # long runs of held equalities: groups past numpy's 8-wide
        # unrolled and 128-element blocked pairwise summation
        rng = np.random.default_rng(seed)
        coll = _VECTOR_KINDS[kind](n)
        pattern = SparsityPattern(rng.random(len(coll)) >= p_keep)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, size=n)
        _assert_same_bytes(coll, pattern, x)

    def test_group_of_nine_is_not_reduceat(self):
        # a 9-element chain where a left-to-right or first-element-seeded sum
        # rounds differently from numpy's pairwise mean
        coll = adjacent_pairs(9)
        x = np.array([3.0, 0.5, 1e16, 3.0, 0.5, -1e16, 0.5, 3.0, 3.0])
        pattern = SparsityPattern(np.zeros(8, dtype=bool))
        assert project(coll, pattern, x)[0] == x.mean() == 15.0 / 9.0
        _assert_same_bytes(coll, pattern, x)


class TestFlatBasis:
    """flat_basis against the dense 0/1 basis B of tests/oracles.py, on
    integer-valued data, so that every sum is exact in any order."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_reduce_and_expand_are_the_dense_basis(self, data):
        kind = data.draw(st.sampled_from(sorted(_VECTOR_KINDS)))
        n = data.draw(st.integers(1 if kind == "coordinate" else 2, 16))
        coll = _VECTOR_KINDS[kind](n)
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(coll),
                                  max_size=len(coll)))
        free, reduce, expand = coll.flat_basis(SparsityPattern(bits))
        B = flat_basis_reference(coll.kind, bits)
        assert free.size == B.shape[1]
        ints = st.integers(-1000, 1000)
        vector = np.array(data.draw(st.lists(ints, min_size=n, max_size=n)),
                          dtype=float)
        matrix = np.array(data.draw(st.lists(
            st.lists(ints, min_size=3, max_size=3), min_size=n, max_size=n)),
            dtype=float)
        z = np.array(data.draw(st.lists(ints, min_size=free.size,
                                        max_size=free.size)), dtype=float)
        assert np.array_equal(reduce(vector), B.T @ vector)
        assert np.array_equal(reduce(matrix), B.T @ matrix)
        assert np.array_equal(expand(z), B @ z)

    def test_rank_collection_rejected(self):
        with pytest.raises(ValueError, match="rank level sets are not flats"):
            rank_levels(3, 3).flat_basis(SparsityPattern([1, 1, 0, 1]))

    @pytest.mark.parametrize("coll", [coordinate_zeros(3), adjacent_pairs(3)],
                             ids=["coordinate", "adjacent"])
    def test_wrong_length_rejected(self, coll):
        for length in (0, len(coll) - 1, len(coll) + 1):
            with pytest.raises(ValueError, match=f"pattern length {length} "
                               f"!= collection size {len(coll)}"):
                coll.flat_basis(SparsityPattern(np.zeros(length)))


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


_bit_lists = st.lists(st.integers(0, 1), max_size=20)


class TestPatternBits:
    @pytest.mark.parametrize("bits", [
        np.array([0.5, 1.7]), [-1, 0], [0, 2], [np.nan, 1.0], [0.0, np.inf],
        np.array([0, 1, 2], dtype=np.uint8), np.array([0, -1], dtype=np.int8),
        np.array([1, 0, 256], dtype=np.int64), ["1"], [None],
    ])
    def test_values_other_than_0_or_1_are_rejected(self, bits):
        with pytest.raises(ValueError, match="^pattern bits must be 0 or 1$"):
            SparsityPattern(bits)

    @pytest.mark.parametrize("bits", [
        [0, 1, 1], [0.0, 1.0, 1.0], np.array([False, True, True]),
        np.array([0, 1, 1], dtype=np.uint8), np.array([-0.0, 1.0, 1.0]),
    ])
    def test_0_1_values_of_any_dtype_are_kept(self, bits):
        pattern = SparsityPattern(bits)
        assert pattern.bits.dtype == bool
        assert pattern.bits.tolist() == [0, 1, 1]
        assert repr(pattern) == "SparsityPattern(011)"

    def test_bits_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SparsityPattern([[0, 1]])

    @pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
    def test_the_callers_array_is_copied_not_frozen(self, dtype):
        a = np.array([1, 0, 1], dtype=dtype)
        pattern = SparsityPattern(a)
        before = hash(pattern)
        assert a.flags.writeable and not np.shares_memory(a, pattern.bits)
        a[0] = 0
        assert pattern.bits.tolist() == [1, 0, 1] and hash(pattern) == before
        assert not pattern.bits.flags.writeable


class TestPatternIdentity:
    """Equality and hash are on the bit bytes and agree with
    np.array_equal on the bits."""

    @settings(max_examples=100, deadline=None)
    @given(_bit_lists, st.data())
    def test_eq_and_hash_agree_with_array_equal(self, bits, data):
        variants = [bits, bits[:-1], bits + [0], bits + [1],
                    data.draw(_bit_lists)]
        if bits:
            i = data.draw(st.integers(0, len(bits) - 1))
            variants.append(bits[:i] + [1 - bits[i]] + bits[i + 1:])
        a = SparsityPattern(bits)
        for other in variants:
            dtype = data.draw(st.sampled_from([np.uint8, bool, np.int64]))
            b = SparsityPattern(np.array(other, dtype=dtype))
            same = np.array_equal(a.bits, b.bits)
            assert (a == b) is same and (b == a) is same
            assert (a != b) is (not same)
            if same:
                assert hash(a) == hash(b)

    @settings(max_examples=100, deadline=None)
    @given(_bit_lists, st.data())
    def test_other_operands_are_not_implemented(self, bits, data):
        a = SparsityPattern(bits)
        other = data.draw(st.one_of(
            st.just(bits), st.just(a.bits.copy()), st.just(a.bits.tobytes()),
            st.just(a.packed_hex()), st.none(), st.integers(),
            st.binary(max_size=20),
        ))
        assert a.__eq__(other) is NotImplemented
        if not isinstance(other, np.ndarray):  # arrays compare elementwise
            assert not a == other and a != other


class TestCollections:
    @pytest.mark.parametrize("kind,ambient,message", [
        ("coordinate", 3, "unknown manifold kind: 'coordinate'"),
        ("coordinate_zero", 0, "ambient dimension must be positive"),
        ("coordinate_zero", -2, "ambient dimension must be positive"),
        ("adjacent_equal", 1, r"adjacent-equal collection needs n >= 2"),
        ("adjacent_equal", 0, r"adjacent-equal collection needs n >= 2"),
        ("rank_level", 3, r"rank collection needs a \(rows, cols\) ambient"),
        ("rank_level", (3,), r"rank collection needs a \(rows, cols\) ambient"),
        ("rank_level", (3, 3, 3), r"rank collection needs a \(rows, cols\)"),
        ("rank_level", [3, 3], r"rank collection needs a \(rows, cols\)"),
        ("rank_level", (-1, 3), r"rank collection needs a \(rows, cols\)"),
        ("coordinate_zero", 2.5, "ambient size must be an integer, got 2.5"),
        ("coordinate_zero", (3, 3), r"an integer, got \(3, 3\)"),
        ("coordinate_zero", True, "ambient size must be an integer, got True"),
        ("adjacent_equal", np.float64(4.0), r"got np.float64\(4.0\)"),
        ("rank_level", (3, 2.5), "ambient size must be an integer, got 2.5"),
        ("rank_level", (False, 3), "ambient size must be an integer, got False"),
    ])
    def test_constructor_validation(self, kind, ambient, message):
        with pytest.raises(ValueError, match=message):
            ManifoldCollection(kind, ambient)

    def test_descriptor(self):
        for coll, kind, ambient, size in (
            (coordinate_zeros(4), "coordinate_zero", 4, 4),
            (adjacent_pairs(4), "adjacent_equal", 4, 3),
            (rank_levels(3, 5), "rank_level", (3, 5), 4),
        ):
            assert (coll.kind, coll.ambient, len(coll)) == (kind, ambient, size)
            assert coll.is_matrix == (kind == "rank_level")
        assert pattern_of([1.0, 1.0, 2.0, 2.0], adjacent_pairs(4)) == (
            SparsityPattern([0, 1, 0])
        )

    def test_regularizers_build_their_own_collections(self):
        # a collection holds one family; a regularizer builds its own from
        # its kind and ambient size, the one the builder of that family makes
        for reg, built in (
            (Regularizer.l1(3), coordinate_zeros(3)),
            (Regularizer.l0(3), coordinate_zeros(3)),
            (Regularizer.tv1d(3), adjacent_pairs(3)),
            (Regularizer.potts1d(3), adjacent_pairs(3)),
            (Regularizer.nuclear(3, 2), rank_levels(3, 2)),
            (Regularizer.rank(3, 2), rank_levels(3, 2)),
        ):
            coll = reg.collection
            assert (coll.kind, coll.ambient, len(coll)) == (
                built.kind, built.ambient, len(built))

    def test_regularizer_sizes_are_checked(self):
        for build, args, bad in ((Regularizer.l1, (3.7,), "3.7"),
                                 (Regularizer.nuclear, (3.0, 3), "3.0")):
            with pytest.raises(ValueError, match="ambient size must be an "
                                                 f"integer, got {bad}"):
                build(*args)

    def test_integral_sizes_accepted(self):
        assert coordinate_zeros(np.int64(3)).ambient == 3
        assert rank_levels(np.int32(2), 3).ambient == (2, 3)

    def test_index_bounds(self):
        # a pattern has one bit per set index 0..len-1 of its family
        for coll in (coordinate_zeros(3), adjacent_pairs(3),
                     rank_levels(3, 3)):
            for length in (len(coll) - 1, len(coll) + 1):
                with pytest.raises(ValueError, match="pattern length"):
                    coll.structure_count(SparsityPattern(np.zeros(length)))
            if not coll.is_matrix:
                for length in (0, len(coll) - 1, len(coll) + 1):
                    wrong = SparsityPattern(np.zeros(length))
                    with pytest.raises(ValueError, match=f"pattern length "
                                       f"{length} != collection size"):
                        project(coll, wrong, np.ones(3))
                project(coll, SparsityPattern(np.zeros(len(coll))),
                        np.ones(3))

    def test_structure_count(self):
        coll = coordinate_zeros(4)
        assert coll.structure_count(SparsityPattern([0, 1, 1, 0])) == 2
        rcoll = rank_levels(3, 2)
        assert rcoll.structure_count(SparsityPattern([1, 0, 1])) == 1

    def test_packed_hex_little_endian(self):
        # bits 0..9 = 1,0,0,0,0,0,0,0,1,1 -> bytes 0x01, 0x03
        pat = SparsityPattern([1, 0, 0, 0, 0, 0, 0, 0, 1, 1])
        assert pat.packed_hex() == "0103"
