"""Plain-text instance bundles.

Matrix files carry a ``rows cols`` header line followed by one line per row
of whitespace-separated entries, which must be finite numbers; vectors are
stored single-column. A malformed file raises BundleError naming it and the
data row. A bundle is a directory with the data files plus a ``meta`` file
of key=value lines (kind, lambda, seed, components, and for certified
instances gamma, delta, and the ground-truth file references).
One row per kind gives its regularizer: an l1 kind's data is a design
A.txt and a right-hand side b.txt, a nuclear kind's one target matrix A.txt.
The generator meta entries kept (rank, expected-rank, degenerate) are one
list, written and read alike for every kind.
"""

import functools
import math
import os

import numpy as np

from .problems import CompositeProblem, LeastSquaresOracle, MatrixLSOracle
from .prox import Regularizer

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_vector",
    "write_bundle",
    "read_bundle",
    "BundleError",
    "read_key_values",
]


class BundleError(ValueError):
    """Malformed bundle directory, instance file or key=value file."""


# bundle kind -> regularizer kind, which says what the data files are
_KINDS = {"lasso": "l1", "qc-lasso": "l1", "lowrank": "nuclear"}


def write_matrix(path, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    # "%.17g" % v renders a float as format(v, ".17g") does
    row_format = " ".join(["%.17g"] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr.tolist():
            fh.write(row_format % tuple(row))


def _is_number(field):
    """Whether np.loadtxt reads the string field as a number. Its parser
    decides, as in the read: Python's float also takes '1_0' and non-ASCII
    digits."""
    try:
        np.loadtxt([field])
    except ValueError:
        return False
    return True


def _bad_row(lines, cols):
    """The first data row that is not cols numbers, and why; or None."""
    rows = filter(None, (line.split("#")[0].split() for line in lines))
    for row, fields in enumerate(rows, start=1):
        bad = next((f for f in fields if not _is_number(f)), None)
        if bad is not None:
            return (f"data row {row}: could not convert string to float: "
                    f"{bad!r}")
        if len(fields) != cols:
            return f"data row {row} has {len(fields)} entries, not {cols}"


def read_matrix(path):
    try:
        with open(path) as fh:
            header = fh.readline()
            try:
                rows, cols = map(int, header.split())
            except ValueError:
                raise BundleError(f"{path}: header {header.strip()!r} is "
                                  "not 'rows cols'") from None
            try:
                data = np.loadtxt(fh, ndmin=2)
            except ValueError as exc:
                fh.seek(0)
                why = _bad_row(fh.readlines()[1:], cols) or exc
                raise BundleError(f"{path}: {why}") from None
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from exc
    if data.shape != (rows, cols):
        raise BundleError(f"{path}: header says {rows}x{cols}, got {data.shape}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise BundleError(
            f"{path}: non-finite entry {float(data[i, j])!r} at data row "
            f"{i + 1}, column {j + 1}"
        )
    return data


def write_vector(path, v):
    write_matrix(path, np.asarray(v, dtype=float).reshape(-1, 1))


def _write_meta(path, entries):
    with open(path, "w") as fh:
        for key, value in entries.items():
            if value is None:
                continue
            if isinstance(value, float):
                value = format(value, ".17g")
            fh.write(f"{key}={value}\n")


def read_key_values(path):
    """Parse a file of key=value lines into a dict of strings.

    Blank lines and lines starting with # are skipped; keys and values are
    stripped. Serves bundle meta files and the CLI's --config files. An
    unreadable file, a line without '=' or a key given twice raises
    BundleError naming the file (and the line numbers).
    """
    entries, first_line = {}, {}
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise BundleError(
                        f"{path}: line {number}: expected key=value, "
                        f"got {line!r}"
                    )
                key, _, value = line.partition("=")
                key = key.strip()
                if key in entries:
                    raise BundleError(f"{path}: line {number}: key {key!r} "
                                      f"repeats line {first_line[key]}")
                entries[key], first_line[key] = value.strip(), number
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from exc
    return entries


def write_bundle(path, problem: CompositeProblem):
    """Serialize a generated problem into a bundle directory; an unknown
    kind raises BundleError before the directory is made."""
    kind = problem.meta.get("kind")
    if kind not in _KINDS:
        raise BundleError(f"cannot serialize problem kind {kind!r}")
    os.makedirs(path, exist_ok=True)
    meta = {
        "kind": kind,
        "lambda": problem.reg.lam,
        "seed": problem.seed,
        "gamma": problem.cert_gamma,
        "delta": problem.delta,
    }
    if _KINDS[kind] == "nuclear":
        write_matrix(os.path.join(path, "A.txt"), problem.smooth.target)
    else:
        write_matrix(os.path.join(path, "A.txt"), problem.smooth.A)
        write_vector(os.path.join(path, "b.txt"), problem.smooth.b)
        meta["components"] = problem.smooth.component_count
    for key, name, _, _ in _GENERATOR_META:
        if name in problem.meta:
            meta[key] = int(problem.meta[name])
    for name, truth in (("xstar", problem.xstar), ("ustar", problem.ustar)):
        if truth is not None:  # a vector is stored as one column
            write_matrix(os.path.join(path, name + ".txt"),
                         truth[:, None] if truth.ndim == 1 else truth)
            meta[name + "-file"] = name + ".txt"
    _write_meta(os.path.join(path, "meta"), meta)


def _read_shaped(path, shape):
    """read_matrix checked against shape; a vector shape (n,) is stored as
    an n x 1 matrix. A mismatch raises BundleError naming the file."""
    m = read_matrix(path)
    stored = shape if len(shape) == 2 else (shape[0], 1)
    if m.shape != stored:
        raise BundleError(f"{path}: expected {stored[0]}x{stored[1]}, "
                          f"found {m.shape[0]}x{m.shape[1]}")
    return m.reshape(shape)


# meta entry kinds: (cast, check, what a valid value is)
_POSITIVE = (float, lambda v: math.isfinite(v) and v > 0,
             "a finite positive number")
_COUNT = (int, lambda v: v >= 0, "a nonnegative integer")
_FLAG = (int, lambda v: v in (0, 1), "0 or 1")

# the generator meta entries a bundle keeps, in file order: (meta file key,
# problem.meta key, entry kind, type in problem.meta)
_GENERATOR_META = (("rank", "rank", _COUNT, int),
                   ("expected-rank", "expected_rank", _COUNT, int),
                   ("degenerate", "degenerate", _FLAG, bool))


def _meta_entry(meta_path, meta, key, spec, required=False):
    """The meta file's key parsed by spec, or None when absent; a value that
    does not parse or fails the check raises BundleError naming file and
    key."""
    if key not in meta:
        if required:
            raise BundleError(f"{meta_path}: missing {key}")
        return None
    cast, check, expected = spec
    value = meta[key]
    try:
        parsed = cast(value)
    except ValueError:
        parsed = None
    if parsed is None or not check(parsed):
        raise BundleError(f"{meta_path}: {key}={value!r} is not {expected}")
    return parsed


def read_bundle(path) -> CompositeProblem:
    """Reconstruct a problem from a bundle directory; the kind is checked
    before any other entry."""
    meta_path = os.path.join(path, "meta")
    if not os.path.isfile(meta_path):
        raise BundleError(f"{path}: missing meta file")
    meta = read_key_values(meta_path)
    kind = meta.get("kind")
    if kind not in _KINDS:
        raise BundleError(f"{path}: unknown bundle kind {kind!r}")
    entry = functools.partial(_meta_entry, meta_path, meta)
    lam = entry("lambda", _POSITIVE, required=True)
    seed = entry("seed", _COUNT)
    gamma = entry("gamma", _POSITIVE)
    delta = entry("delta", _POSITIVE)
    extra = {"kind": kind}
    for key, name, spec, type_ in _GENERATOR_META:
        value = entry(key, spec)
        if value is not None:
            extra[name] = type_(value)

    A = read_matrix(os.path.join(path, "A.txt"))
    if _KINDS[kind] == "nuclear":
        smooth, ambient, shape = MatrixLSOracle(A), A.shape, A.shape
    else:
        m, n = A.shape
        b = _read_shaped(os.path.join(path, "b.txt"), (m,))
        components = entry("components", (int, lambda v: 1 <= v <= m,
                                          f"an integer in 1..{m}"))
        smooth = LeastSquaresOracle(A, b, components=components)
        ambient, shape = n, (n,)
    xstar, ustar = (_read_shaped(os.path.join(path, meta[key]), shape)
                    if key in meta else None  # the meta names no file
                    for key in ("xstar-file", "ustar-file"))
    return CompositeProblem(
        smooth=smooth, reg=Regularizer(_KINDS[kind], lam, ambient),
        xstar=xstar, ustar=ustar, cert_gamma=gamma, delta=delta,
        seed=seed, meta=extra,
    )
