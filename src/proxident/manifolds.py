"""Structure collections: membership patterns and the flats they name.

A collection is an ordered, finite list of closed sets ("manifolds") encoding
a structural prior: coordinate hyperplanes for sparsity, adjacent-equality
hyperplanes for piecewise-constant signals, and rank level sets for matrices.
A collection holds one family and is described by its (kind, ambient) pair
alone: set i is {x : x_i = 0} for "coordinate_zero" over R^n,
{x : x_{i+1} = x_i} for "adjacent_equal" over R^n, and {X : rank(X) = i}
for "rank_level" over (rows, cols) matrices. The membership pattern of a
point is a bit vector with 0 marking the sets the point belongs to.

A prox result reports its pattern from the branches its kernel took.
``pattern_of`` gives the pattern of any other point of a vector family
by exact tests (x_i == 0, x_{i+1} == x_i), never by a tolerance; exact
rank membership is undecidable in floating point, so rank patterns come
only from ``prox_nuclear`` and ``prox_rank``.

For the two vector families the sets a pattern holds intersect in a flat,
and ``ManifoldCollection.flat_basis`` is the one statement of its basis:
predictor-corrector solves on it, and ``project`` projects onto it.
"""

import numbers

import numpy as np

__all__ = [
    "ManifoldCollection",
    "SparsityPattern",
    "coordinate_zeros",
    "adjacent_pairs",
    "rank_levels",
    "pattern_of",
    "project",
    "pattern_leq",
]

COORDINATE_ZERO = "coordinate_zero"
ADJACENT_EQUAL = "adjacent_equal"
RANK_LEVEL = "rank_level"


class SparsityPattern:
    """Bit vector over a collection: bit i is 0 iff the point lies in set i.

    Equality and hash are on the bit bytes (``bits.tobytes()``): the bits
    are a read-only 1-D bool array, one byte per bit, so equal bytes mean
    equal length and equal bits. They are given as a 1-D boolean mask or as
    1-D values that are each 0 or 1, or a ValueError is raised, and kept as
    a copy, so the caller's array is neither frozen nor shared (a prox
    kernel's fresh mask is kept as it is: ``_frozen_pattern``).
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValueError("pattern bits must be one-dimensional")
        # a boolean mask is 0/1 already; any other values are checked before
        # the cast, which would turn 0.5 and -1 into True
        if arr.dtype != bool and arr.size and not (
                (arr == 0) | (arr == 1)).all():
            raise ValueError("pattern bits must be 0 or 1")
        arr = arr.astype(bool)  # always a copy: the caller keeps its own
        arr.setflags(write=False)
        self.bits = arr

    def __len__(self):
        return self.bits.size

    def __eq__(self, other):
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return self.bits.tobytes() == other.bits.tobytes()

    def __hash__(self):
        return hash(self.bits.tobytes())

    def __repr__(self):
        bits = "".join("01"[b] for b in self.bits.tolist())
        return f"SparsityPattern({bits})"

    def count_ones(self) -> int:
        """Number of sets the point does NOT belong to (nnz for sparsity)."""
        return int(np.count_nonzero(self.bits))

    def packed_hex(self) -> str:
        """Lowercase hex of the bits packed little-endian (trace hash)."""
        if self.bits.size == 0:
            return ""
        return np.packbits(self.bits, bitorder="little").tobytes().hex()


def _frozen_pattern(mask) -> SparsityPattern:
    """The pattern whose bits are mask, a fresh 1-D bool array that no one
    else writes: mask is frozen and kept, with no check and no copy."""
    pattern = object.__new__(SparsityPattern)
    mask.setflags(write=False)
    pattern.bits = mask
    return pattern


def pattern_leq(a: SparsityPattern, b: SparsityPattern) -> bool:
    """Coordinate-wise order: a <= b iff a_i <= b_i for every i."""
    if len(a) != len(b):
        raise ValueError(f"pattern length mismatch: {len(a)} vs {len(b)}")
    return not (a.bits > b.bits).any()


def _integer(name, value, low=None) -> int:
    """value as an int, or a ValueError naming it (a bool is no integer);
    with low, also one naming it when value < low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {name}={value!r}")
    return int(value)


def _real(name, value):
    """A ValueError naming value unless it is a number (a bool is none)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


class ManifoldCollection:
    """The ordered sets of one structure family over one ambient space.

    Parameters
    ----------
    kind : "coordinate_zero", "adjacent_equal" or "rank_level"
        Set i is {x : x_i = 0} (i = 0..n-1), {x : x_{i+1} = x_i}
        (i = 0..n-2), or {X : rank(X) = i} (i = 0..min(rows, cols)).
    ambient : int or (rows, cols)
        Vector dimension n, or matrix shape for rank collections; each size
        an integer, not a bool.
    """

    def __init__(self, kind, ambient):
        if kind not in (COORDINATE_ZERO, ADJACENT_EQUAL, RANK_LEVEL):
            raise ValueError(f"unknown manifold kind: {kind!r}")
        if kind == RANK_LEVEL:
            if not (isinstance(ambient, tuple) and len(ambient) == 2 and min(
                    _integer("ambient size", v) for v in ambient) >= 0):
                raise ValueError("rank collection needs a (rows, cols) ambient")
            self.ambient = (int(ambient[0]), int(ambient[1]))
            self._size = min(self.ambient) + 1
        else:
            n = _integer("ambient size", ambient)
            if kind == ADJACENT_EQUAL and n < 2:
                raise ValueError("adjacent-equal collection needs n >= 2")
            if n < 1:
                raise ValueError("ambient dimension must be positive")
            self.ambient = n
            self._size = n - 1 if kind == ADJACENT_EQUAL else n
        self.kind = kind

    @property
    def is_matrix(self) -> bool:
        return self.kind == RANK_LEVEL

    def __len__(self):
        return self._size

    def __repr__(self):
        return f"ManifoldCollection({self.kind!r}, ambient={self.ambient})"

    def _check_point(self, point) -> np.ndarray:
        """point as a float vector of the ambient size (vector kinds only)."""
        point = np.asarray(point, dtype=float)
        if point.ndim != 1 or point.size != self.ambient:
            raise ValueError(f"point size {point.shape} != ({self.ambient},)")
        return point

    def structure_count(self, pattern: SparsityPattern) -> int:
        """Scalar trace statistic: nnz / jump count for vector collections,
        the rank level carrying the 0 bit for rank collections."""
        if len(pattern) != len(self):
            raise ValueError("pattern length does not match collection")
        if self.is_matrix:
            zero = np.flatnonzero(pattern.bits == 0)
            if zero.size != 1:
                raise ValueError("rank pattern must have exactly one 0 bit")
            return int(zero[0])
        return pattern.count_ones()

    def flat_basis(self, pattern: SparsityPattern):
        """(free, reduce, expand) for the basis B of pattern's flat, the
        intersection of the sets whose bit is 0: reduce(M) = B^T M and
        expand(z) = B z. B's columns are the kept coordinates' unit vectors
        (free lists them) or the segments' indicators (free lists their
        starts). Rank level sets are not flats, so a rank collection is
        rejected, and so is a pattern of another length."""
        if self.is_matrix:
            raise ValueError("rank level sets are not flats: no projection")
        if len(pattern) != len(self):
            raise ValueError(f"pattern length {len(pattern)} != collection "
                             f"size {len(self)}")
        bits = pattern.bits
        if self.kind == COORDINATE_ZERO:
            free = np.flatnonzero(bits)

            def expand(z):
                x = np.zeros(bits.size)
                x[free] = z
                return x

            return free, lambda m: m[free], expand
        free = np.flatnonzero(np.concatenate(([1], bits)))
        lengths = np.diff(np.append(free, self.ambient))
        return (free, lambda m: np.add.reduceat(m, free, axis=0),
                lambda z: np.repeat(z, lengths))


def coordinate_zeros(n: int) -> ManifoldCollection:
    """The n coordinate hyperplanes {x : x_i = 0} in order."""
    return ManifoldCollection(COORDINATE_ZERO, n)


def adjacent_pairs(n: int) -> ManifoldCollection:
    """The n-1 hyperplanes {x : x_{i+1} = x_i}, i = 0..n-2."""
    return ManifoldCollection(ADJACENT_EQUAL, n)


def rank_levels(rows: int, cols: int) -> ManifoldCollection:
    """Rank level sets {rank = r} for r = 0..min(rows, cols)."""
    return ManifoldCollection(RANK_LEVEL, (rows, cols))


def pattern_of(point, collection: ManifoldCollection) -> SparsityPattern:
    """Membership pattern of a point by exact tests: bit i is 0 iff x_i == 0
    (coordinate zeros) or x_{i+1} == x_i (adjacent equalities), so -0.0 is
    a zero and a NaN entry (or difference) belongs to no set. A rank
    collection is refused with a ValueError: a prox reports rank patterns.
    """
    if collection.is_matrix:
        raise ValueError(
            "exact rank membership is undecidable in floating point; "
            "rank patterns come from prox_nuclear and prox_rank")
    point = collection._check_point(point)
    if collection.kind == COORDINATE_ZERO:
        values = point
    else:
        with np.errstate(invalid="ignore"):  # inf - inf is NaN: no set
            values = np.diff(point)
    return _frozen_pattern(~(values == 0.0))


def project(collection: ManifoldCollection, pattern: SparsityPattern,
            point) -> np.ndarray:
    """Euclidean projection onto the flat of ``pattern``: the intersection
    of the sets whose bit is 0, with the basis ``collection.flat_basis``.

    For a coordinate collection the held coordinates are zeroed; for an
    adjacent-equality collection each segment is replaced by its mean. A
    rank collection and a pattern of another length than the collection
    are rejected, as ``flat_basis`` rejects them.
    """
    if collection.is_matrix:
        raise ValueError("rank level sets are not flats: no projection")
    point = collection._check_point(point)
    free, reduce, expand = collection.flat_basis(pattern)
    if collection.kind == COORDINATE_ZERO:
        # + 0.0 copies and maps -0.0 to +0.0, as the mean of one element does
        return expand(reduce(point) + 0.0)
    lengths = np.diff(np.append(free, point.size))
    # Row means of equal-length segments stacked as a matrix: numpy sums each
    # row exactly as it sums the 1-D segment (pairwise, from 0.0), so the
    # means match point[members].mean() bit for bit. np.add.reduceat (the
    # basis's reduce) does not: it starts each sum from the first element.
    values = np.empty(free.size)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        members = free[rows, None] + np.arange(length)
        values[rows] = point[members].mean(axis=1)
    return expand(values)
