"""Structure collections: membership patterns and Euclidean projections.

A collection is an ordered, finite list of closed sets ("manifolds") encoding
a structural prior: coordinate hyperplanes for sparsity, adjacent-equality
hyperplanes for piecewise-constant signals, and rank level sets for matrices.
The membership pattern of a point is a bit vector with 0 marking the sets the
point belongs to.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ManifoldSpec",
    "ManifoldCollection",
    "SparsityPattern",
    "StructuredPoint",
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

# Numeric membership defaults for externally supplied points. Points coming
# out of a proximal operator carry exact branch information instead.
DEFAULT_COORD_TOL = 1e-12
DEFAULT_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ManifoldSpec:
    """One structure set.

    kind = "coordinate_zero": {x : x[index] = 0}, 0 <= index < n.
    kind = "adjacent_equal":  {x : x[index] = x[index-1]}, 1 <= index < n.
    kind = "rank_level":      {X : rank(X) = index}, 0 <= index <= min(shape).
    """

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in (COORDINATE_ZERO, ADJACENT_EQUAL, RANK_LEVEL):
            raise ValueError(f"unknown manifold kind: {self.kind!r}")
        if self.index < 0:
            raise ValueError("manifold index must be nonnegative")


class SparsityPattern:
    """Bit vector over a collection: bit i is 0 iff the point lies in set i."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("pattern bits must be one-dimensional")
        # a boolean mask is 0/1 already; asarray copies it into owned bits
        if arr.size and getattr(bits, "dtype", None) != bool and arr.max() > 1:
            raise ValueError("pattern bits must be 0 or 1")
        arr.setflags(write=False)
        self.bits = arr

    def __len__(self):
        return self.bits.size

    def __eq__(self, other):
        if not isinstance(other, SparsityPattern):
            return NotImplemented
        return self.bits.size == other.bits.size and bool(
            np.all(self.bits == other.bits)
        )

    def __hash__(self):
        return hash(self.bits.tobytes())

    def __repr__(self):
        return f"SparsityPattern({''.join(map(str, self.bits.tolist()))})"

    def count_ones(self) -> int:
        """Number of sets the point does NOT belong to (nnz for sparsity)."""
        return int(np.count_nonzero(self.bits))

    def packed_hex(self) -> str:
        """Lowercase hex of the bits packed little-endian (trace hash)."""
        if self.bits.size == 0:
            return ""
        return np.packbits(self.bits, bitorder="little").tobytes().hex()


def pattern_leq(a: SparsityPattern, b: SparsityPattern) -> bool:
    """Coordinate-wise order: a <= b iff a_i <= b_i for every i."""
    if len(a) != len(b):
        raise ValueError(f"pattern length mismatch: {len(a)} vs {len(b)}")
    return bool(np.all(a.bits <= b.bits))


class ManifoldCollection:
    """Ordered finite list of compatible structure sets over one ambient space.

    Parameters
    ----------
    specs : sequence of ManifoldSpec
        Nonempty, duplicate-free. Vector kinds (coordinate_zero,
        adjacent_equal) may be mixed; rank_level specs cannot be mixed with
        vector kinds.
    ambient : int or (rows, cols)
        Vector dimension, or matrix shape for rank collections.
    """

    def __init__(self, specs, ambient):
        specs = tuple(specs)
        if not specs:
            raise ValueError("collection must be nonempty")
        if len(set(specs)) != len(specs):
            raise ValueError("duplicate specs in collection")
        kinds = {s.kind for s in specs}
        if RANK_LEVEL in kinds:
            if kinds != {RANK_LEVEL}:
                raise ValueError("rank sets cannot be mixed with vector sets")
            if not (isinstance(ambient, tuple) and len(ambient) == 2):
                raise ValueError("rank collection needs a (rows, cols) ambient")
            rows, cols = ambient
            for s in specs:
                if s.index > min(rows, cols):
                    raise ValueError(f"rank level {s.index} exceeds min{ambient}")
            self.ambient = (int(rows), int(cols))
        else:
            n = int(ambient)
            if n < 1:
                raise ValueError("ambient dimension must be positive")
            for s in specs:
                if s.kind == COORDINATE_ZERO and not 0 <= s.index < n:
                    raise ValueError(f"coordinate index {s.index} out of range")
                if s.kind == ADJACENT_EQUAL and not 1 <= s.index < n:
                    raise ValueError(f"adjacent index {s.index} out of range")
            self.ambient = n
        self.specs = specs

    @cached_property
    def _spec_arrays(self):
        """(index, adjacent): every spec's index, and whether it is an
        adjacent equality, as arrays; built on the first project call."""
        index = np.array([s.index for s in self.specs], dtype=np.intp)
        adjacent = np.array([s.kind == ADJACENT_EQUAL for s in self.specs])
        return index, adjacent

    @property
    def is_matrix(self) -> bool:
        return isinstance(self.ambient, tuple)

    def __len__(self):
        return len(self.specs)

    def __repr__(self):
        return f"ManifoldCollection({len(self.specs)} specs, ambient={self.ambient})"

    def _check_point(self, point) -> np.ndarray:
        point = np.asarray(point, dtype=float)
        if self.is_matrix:
            if point.shape != self.ambient:
                raise ValueError(f"point shape {point.shape} != {self.ambient}")
        else:
            if point.ndim != 1 or point.size != self.ambient:
                raise ValueError(f"point size {point.shape} != ({self.ambient},)")
        return point

    def structure_count(self, pattern: SparsityPattern) -> int:
        """Scalar trace statistic: nnz / jump count for vector collections,
        the rank level carrying the 0 bit for rank collections."""
        if len(pattern) != len(self.specs):
            raise ValueError("pattern length does not match collection")
        if self.is_matrix:
            zero = np.flatnonzero(pattern.bits == 0)
            if zero.size != 1:
                raise ValueError("rank pattern must have exactly one 0 bit")
            return self.specs[int(zero[0])].index
        return pattern.count_ones()


def coordinate_zeros(n: int) -> ManifoldCollection:
    """The n coordinate hyperplanes {x : x_i = 0} in order."""
    return ManifoldCollection(
        [ManifoldSpec(COORDINATE_ZERO, i) for i in range(n)], n
    )


def adjacent_pairs(n: int) -> ManifoldCollection:
    """The n-1 hyperplanes {x : x_i = x_{i-1}}, i = 1..n-1."""
    if n < 2:
        raise ValueError("adjacent-equal collection needs n >= 2")
    return ManifoldCollection(
        [ManifoldSpec(ADJACENT_EQUAL, i) for i in range(1, n)], n
    )


def rank_levels(rows: int, cols: int) -> ManifoldCollection:
    """Rank level sets {rank = r} for r = 0..min(rows, cols)."""
    return ManifoldCollection(
        [ManifoldSpec(RANK_LEVEL, r) for r in range(min(rows, cols) + 1)],
        (rows, cols),
    )


def pattern_of(point, collection: ManifoldCollection, tol=None) -> SparsityPattern:
    """Membership pattern of an externally supplied point.

    Parameters
    ----------
    tol : None, "auto", or float
        None tests exact equality and is only valid for vector collections.
        "auto" uses the kind defaults (1e-12 on coordinates and adjacent
        differences; singular values below 1e-10 * sigma_max count as zero).
        A float is used as an absolute tolerance everywhere.

    Rank membership is decided against the exact-rank sets {rank = r}, so at
    most one bit of the result is 0 for a rank collection.
    """
    point = collection._check_point(point)
    bits = np.ones(len(collection), dtype=np.uint8)
    if collection.is_matrix:
        if tol is None:
            raise ValueError(
                "exact rank membership is undecidable in floating point; "
                "pass tol='auto' or an absolute threshold"
            )
        sigma = np.linalg.svd(point, compute_uv=False)
        if tol == "auto":
            cut = DEFAULT_RANK_RTOL * (sigma[0] if sigma.size else 0.0)
        else:
            cut = float(tol)
        rank = int(np.sum(sigma > cut))
        for i, spec in enumerate(collection.specs):
            if spec.index == rank:
                bits[i] = 0
        return SparsityPattern(bits)

    if tol == "auto":
        tol = DEFAULT_COORD_TOL
    for i, spec in enumerate(collection.specs):
        if spec.kind == COORDINATE_ZERO:
            value = point[spec.index]
        else:
            value = point[spec.index] - point[spec.index - 1]
        if (value == 0.0) if tol is None else (abs(value) <= tol):
            bits[i] = 0
    return SparsityPattern(bits)


def project(collection: ManifoldCollection, indices, point) -> np.ndarray:
    """Euclidean projection onto the intersection of the selected sets.

    ``indices`` selects positions into ``collection.specs``. For vector
    collections the intersection is an affine subspace: selected coordinates
    are zeroed and each chain of selected adjacent equalities is replaced by
    its mean (a chain touching a zeroed coordinate collapses to zero). For a
    rank collection the subset must be a single level r and the projection
    truncates the singular value decomposition to the r leading values.
    """
    point = collection._check_point(point)
    if not (isinstance(indices, np.ndarray) and indices.dtype.kind in "iu"):
        indices = np.array([int(i) for i in indices], dtype=np.intp)
    if indices.size:
        if indices.min() < 0:
            raise ValueError(f"spec index {indices.min()} out of range")
        count = len(collection)
        if indices.max() >= count:
            first = indices[indices >= count].min()
            raise ValueError(f"spec index {first} out of range")

    if collection.is_matrix:
        levels = np.unique(indices)
        if levels.size != 1:
            raise ValueError("rank projection needs exactly one rank level")
        r = collection.specs[levels[0]].index
        if r == 0:
            return np.zeros_like(point)
        u, s, vt = np.linalg.svd(point, full_matrices=False)
        s[r:] = 0.0
        return (u * s) @ vt

    spec_index, spec_adjacent = collection._spec_arrays
    adjacent = spec_adjacent[indices]
    positions = spec_index[indices]
    n = point.size
    # coordinate j joins the group of j-1 when x_j = x_{j-1} is selected, so
    # groups are runs of consecutive coordinates starting where no link is
    link = np.zeros(n, dtype=bool)
    link[positions[adjacent]] = True
    starts = np.flatnonzero(~link)
    group = np.cumsum(~link) - 1  # group number of each coordinate
    lengths = np.diff(np.append(starts, n))
    # Row means of equal-length groups stacked as a matrix: numpy sums each
    # row exactly as it sums the 1-D group (pairwise, from 0.0), so the means
    # match point[members].mean() bit for bit. np.add.reduceat does not: it
    # starts each sum from the group's first element.
    values = np.empty(starts.size)
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        members = starts[rows, None] + np.arange(length)
        values[rows] = point[members].mean(axis=1)
    values[group[positions[~adjacent]]] = 0.0
    return values[group]


@dataclass
class StructuredPoint:
    """A point together with its membership pattern and how it was obtained.

    provenance "prox" means the pattern came from the branch taken inside a
    proximal operator and is exact; "numeric" means it came from a tolerance
    test on the values (tol records the threshold used).
    """

    point: np.ndarray
    pattern: SparsityPattern
    provenance: str = "prox"
    tol: float | None = None

    def __post_init__(self):
        if self.provenance not in ("prox", "numeric"):
            raise ValueError("provenance must be 'prox' or 'numeric'")
        if self.provenance == "prox" and self.tol is not None:
            raise ValueError("prox-branch patterns carry no tolerance")
