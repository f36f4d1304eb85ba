"""Identification monitoring: pattern stability and ball bounds.

Iterates of a converging proximal method eventually carry at least the
structure of the limit point and at most the structure reachable by the prox
from a ball around the limit's pre-image u*. The helpers here analyze traces
for stability, evaluate the ball bound in closed form for the l1 geometry,
and test the stability condition that makes identification exact (in closed
form for l1, else by comparing the prox patterns of draws in the ball with
the center's). The bound's 0 bits also screen:
given a ball certified to hold u*, they are coordinates provably zero at the
optimum (``proxident screen``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .manifolds import SparsityPattern, _integer

__all__ = [
    "IdentificationReport",
    "analyze_trace",
    "enlarged_bound_l1",
    "qc_check",
    "report_text",
]


@dataclass
class IdentificationReport:
    """Summary of the pattern sequence of one trace.

    first_stable_iter is the 0-based position in the trace from which the
    pattern no longer changes (0 for a constant trace). monotone records
    whether the nnz/rank statistic was nonincreasing; oscillation_count is
    the number of adjacent pattern changes.
    """

    first_stable_iter: int
    pattern_final: SparsityPattern
    monotone: bool
    oscillation_count: int


def analyze_trace(log) -> IdentificationReport:
    """Fold a TraceLog into a stability report.

    One pass over the rows' pattern bit bytes: each adjacent pair is
    compared once, and the position of the last change is the first stable
    one. monotone reads the nnz column, which is the rank for rank
    collections.
    """
    if not log:
        raise ValueError("empty trace")
    keys = log.pattern_keys()
    counts = log.nnz
    changes = [i for i, (a, b) in enumerate(zip(keys, keys[1:]), 1) if a != b]
    monotone = all(a >= b for a, b in zip(counts, counts[1:]))
    return IdentificationReport(
        first_stable_iter=changes[-1] if changes else 0,
        pattern_final=log.patterns[-1],
        monotone=monotone,
        oscillation_count=len(changes),
    )


def _check_eps(eps):
    if not eps >= 0:  # NaN fails this too
        raise ValueError(f"eps must be nonnegative, got {eps!r}")


def enlarged_bound_l1(ustar, step, eps) -> SparsityPattern:
    """Largest pattern the l1 prox can produce on the eps-ball around ustar.

    Closed form: coordinate i can be nonzero for some u with
    ||u - ustar|| <= eps exactly when |ustar_i| + eps > step (= gamma*lam).
    ustar must be finite, and step finite and nonnegative.
    """
    _check_eps(eps)
    if not 0.0 <= step < math.inf:  # NaN fails this too
        raise ValueError(f"step must be finite and nonnegative, got {step!r}")
    ustar = np.asarray(ustar, dtype=float)
    if not np.isfinite(ustar).all():
        raise ValueError("ustar must be finite")
    return SparsityPattern(np.abs(ustar) + eps > step)


def _ball_patterns(reg, ustar, gamma, eps, n_samples, seed):
    """Prox patterns at n_samples uniform draws in the eps-ball around
    ustar, each drawn as a standard normal direction, then a uniform
    radius, from one generator seeded with seed."""
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        direction = rng.standard_normal(ustar.shape)
        norm = np.linalg.norm(direction)
        u = ustar
        if norm != 0.0:
            radius = eps * rng.uniform() ** (1.0 / ustar.size)
            u = ustar + (radius / norm) * direction
        yield reg.prox(u, gamma).pattern


def qc_check(problem, eps, n_samples=1000, seed=0) -> bool:
    """Is the prox pattern constant over the eps-ball around ustar?

    For l1 the answer is the closed form, and True guarantees that any
    method whose u-iterates enter that ball produces iterates with exactly
    the optimal pattern. For other kinds True is an estimate: all
    n_samples draws in the ball reproduced the optimal pattern. It can
    over-accept, since a point the draws missed may change the pattern (a
    rank-one move that crosses a singular value, for the nuclear norm), so
    it guarantees nothing; False is always right. eps = inf gives False for
    every kind, as the closed form does. n_samples must be a positive
    integer, whatever the kind.
    """
    if not problem.has_ground_truth:
        raise ValueError("qc_check needs a problem with ground truth")
    _check_eps(eps)
    _integer("n_samples", n_samples, 1)
    reg = problem.reg
    gamma = problem.cert_gamma
    ustar = np.asarray(problem.ustar, dtype=float)
    if reg.kind == "l1":
        step = gamma * reg.lam
        zero = np.asarray(problem.xstar) == 0.0
        ok_zero = np.all(np.abs(ustar[zero]) + eps <= step)
        ok_nonzero = np.all(np.abs(ustar[~zero]) - eps > step)
        return bool(ok_zero and ok_nonzero)
    target = reg.prox(ustar, gamma).pattern
    if eps == math.inf:
        return False
    return all(pattern == target for pattern in
               _ball_patterns(reg, ustar, gamma, eps, n_samples, seed))


def report_text(report: IdentificationReport) -> str:
    """Key=value rendering of a report (stable interface for the CLI)."""
    return (
        f"first_stable_iter={report.first_stable_iter}\n"
        f"oscillation_count={report.oscillation_count}\n"
        f"monotone={int(report.monotone)}\n"
        f"pattern_hash={report.pattern_final.packed_hex()}\n"
    )
