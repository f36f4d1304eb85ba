"""Plain-text instance bundles.

Matrix files carry a ``rows cols`` header line followed by one line per row
of whitespace-separated entries, which must be finite; vectors are stored
single-column. A bundle is a directory with the data files plus a ``meta``
file of key=value lines (kind, lambda, seed, components, and for certified
instances gamma, delta, and the ground-truth file references).
"""

import os

import numpy as np

from .problems import (
    CompositeProblem,
    least_squares_oracle,
    matrix_ls_oracle,
)
from .prox import Regularizer

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_vector",
    "read_vector",
    "write_bundle",
    "read_bundle",
    "BundleError",
]


class BundleError(ValueError):
    """Malformed bundle directory or instance file."""


def write_matrix(path, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{arr.shape[0]} {arr.shape[1]}\n")
        for row in arr:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def read_matrix(path):
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise BundleError(f"{path}: bad header line")
            rows, cols = int(header[0]), int(header[1])
            data = np.loadtxt(fh, ndmin=2)
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


def read_vector(path):
    m = read_matrix(path)
    if m.shape[1] != 1:
        raise BundleError(f"{path}: expected a single-column vector")
    return m[:, 0]


def _write_meta(path, entries):
    with open(path, "w") as fh:
        for key, value in entries.items():
            if value is None:
                continue
            if isinstance(value, float):
                value = format(value, ".17g")
            fh.write(f"{key}={value}\n")


def _read_meta(path):
    meta = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise BundleError(f"{path}: bad meta line {line!r}")
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from exc
    return meta


def write_bundle(path, problem: CompositeProblem):
    """Serialize a generated problem into a bundle directory."""
    os.makedirs(path, exist_ok=True)
    kind = problem.meta.get("kind")
    if kind not in ("lasso", "qc-lasso", "lowrank"):
        raise BundleError(f"cannot serialize problem kind {kind!r}")
    meta = {
        "kind": kind,
        "lambda": problem.reg.lam,
        "seed": problem.seed,
        "gamma": problem.cert_gamma,
        "delta": problem.delta,
    }
    if kind == "lowrank":
        write_matrix(os.path.join(path, "A.txt"), problem.smooth.target)
        meta["rank"] = problem.meta.get("rank")
        meta["expected-rank"] = problem.meta.get("expected_rank")
        meta["degenerate"] = int(bool(problem.meta.get("degenerate")))
    else:
        write_matrix(os.path.join(path, "A.txt"), problem.smooth.A)
        write_vector(os.path.join(path, "b.txt"), problem.smooth.b)
        comps = problem.smooth.components
        meta["components"] = len(comps) if comps else None
        if kind == "qc-lasso":
            meta["degenerate"] = int(bool(problem.meta.get("degenerate")))
    if problem.xstar is not None:
        write_matrix(os.path.join(path, "xstar.txt"),
                     np.atleast_2d(problem.xstar).T
                     if problem.xstar.ndim == 1 else problem.xstar)
        meta["xstar-file"] = "xstar.txt"
    if problem.ustar is not None:
        write_matrix(os.path.join(path, "ustar.txt"),
                     np.atleast_2d(problem.ustar).T
                     if problem.ustar.ndim == 1 else problem.ustar)
        meta["ustar-file"] = "ustar.txt"
    _write_meta(os.path.join(path, "meta"), meta)


def _read_ground_truth(path, meta, vector):
    xstar = ustar = None
    if "xstar-file" in meta:
        m = read_matrix(os.path.join(path, meta["xstar-file"]))
        xstar = m[:, 0] if vector else m
    if "ustar-file" in meta:
        m = read_matrix(os.path.join(path, meta["ustar-file"]))
        ustar = m[:, 0] if vector else m
    return xstar, ustar


def read_bundle(path) -> CompositeProblem:
    """Reconstruct a problem from a bundle directory."""
    meta_path = os.path.join(path, "meta")
    if not os.path.isfile(meta_path):
        raise BundleError(f"{path}: missing meta file")
    meta = _read_meta(meta_path)
    kind = meta.get("kind")
    try:
        lam = float(meta["lambda"])
    except (KeyError, ValueError) as exc:
        raise BundleError(f"{path}: missing or bad lambda") from exc
    seed = int(meta["seed"]) if "seed" in meta else None
    gamma = float(meta["gamma"]) if "gamma" in meta else None
    delta = float(meta["delta"]) if "delta" in meta else None

    if kind == "lowrank":
        target = read_matrix(os.path.join(path, "A.txt"))
        xstar, ustar = _read_ground_truth(path, meta, vector=False)
        extra = {"kind": kind}
        for key, name in (("rank", "rank"), ("expected-rank", "expected_rank")):
            if key in meta:
                extra[name] = int(meta[key])
        if "degenerate" in meta:
            extra["degenerate"] = bool(int(meta["degenerate"]))
        return CompositeProblem(
            smooth=matrix_ls_oracle(target),
            reg=Regularizer.nuclear(*target.shape, lam=lam),
            xstar=xstar, ustar=ustar, cert_gamma=gamma, delta=delta,
            seed=seed, meta=extra,
        )
    if kind in ("lasso", "qc-lasso"):
        A = read_matrix(os.path.join(path, "A.txt"))
        b = read_vector(os.path.join(path, "b.txt"))
        components = int(meta["components"]) if "components" in meta else None
        xstar, ustar = _read_ground_truth(path, meta, vector=True)
        extra = {"kind": kind}
        if "degenerate" in meta:
            extra["degenerate"] = bool(int(meta["degenerate"]))
        return CompositeProblem(
            smooth=least_squares_oracle(A, b, components=components),
            reg=Regularizer.l1(A.shape[1], lam),
            xstar=xstar, ustar=ustar, cert_gamma=gamma, delta=delta,
            seed=seed, meta=extra,
        )
    raise BundleError(f"{path}: unknown bundle kind {kind!r}")
