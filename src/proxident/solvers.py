"""Proximal solvers with a common iteration and trace contract.

Every solver follows the same template: an update step produces u_{k+1},
then x_{k+1} = prox_{gamma*g}(u_{k+1}) with the prox module supplying the
exact structure pattern of the iterate. Runs stop when the u-step
||u_{k+1} - u_k|| falls below stop_tol or when max_iter is reached, and
return the final structured point together with a list of trace records.
The u-step is computed before the prox call; when it is not finite the run
stops there as diverged, returning the last finite iterate and the trace so
far (``trace.status`` is "converged", "max_iter" or "diverged"). Each run
holds numpy's overflow and invalid-value warnings off, so a diverging run
ends with that status and no RuntimeWarning.

Default stepsizes are taken from the oracle constants: gamma = 1/L for the
proximal gradient and its accelerated variant, 1/(3*L_max) for SAGA
(component-wise constants), and 1/L for Douglas-Rachford (any positive value
is admissible there).

Trace CSV schema: ``k,objective,nnz,pattern_hash,u_step,comm_coords,
wallclock_s`` (structure-adaptive solvers append ``accel_active,
enforced_count``). The wallclock column is the solver's deterministic
logical clock -- simulated seconds for the asynchronous solver, zero for the
synchronous ones -- so that identical runs emit byte-identical files.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .manifolds import SparsityPattern, StructuredPoint

__all__ = [
    "SolverConfig",
    "TraceRecord",
    "TraceLog",
    "run_pg",
    "run_apg",
    "run_dr",
    "run_saga",
    "fixed_point_residual",
    "trace_csv_text",
    "trace_to_csv",
    "TRACE_COLUMNS",
]


@dataclass
class SolverConfig:
    """Shared solver knobs.

    gamma=None picks the algorithm default from the oracle constants; an
    explicit value is validated against the algorithm's admissible range.
    keep_u stores a copy of u_k on each trace record (diagnostics; never
    serialized to CSV).
    """

    gamma: float | None = None
    max_iter: int = 100_000
    stop_tol: float = 1e-10
    seed: int = 0
    trace_every: int = 1
    keep_u: bool = False

    def __post_init__(self):
        if self.max_iter < 1 or self.trace_every < 1:
            raise ValueError("max_iter and trace_every must be positive")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")


@dataclass
class TraceRecord:
    k: int
    objective: float
    pattern: SparsityPattern
    nnz: int
    u_step: float
    comm_coords: int = 0
    wallclock: float = 0.0
    accel_active: int | None = None
    enforced_count: int | None = None
    u: np.ndarray | None = None


CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"


class TraceLog(list):
    """List of TraceRecord plus run metadata; status is CONVERGED, MAX_ITER
    or DIVERGED once the run has ended."""

    def __init__(self, gamma, seed):
        super().__init__()
        self.gamma = gamma
        self.seed = seed
        self.converged = False
        self.status = None
        self.iterations = 0


TRACE_COLUMNS = "k,objective,nnz,pattern_hash,u_step,comm_coords,wallclock_s"
_EXTRA_COLUMNS = ",accel_active,enforced_count"


def _fmt(v: float) -> str:
    return repr(float(v))


def trace_csv_text(trace) -> str:
    """Render a trace in the canonical CSV schema (extra columns appear when
    the records carry structure-adaptation fields)."""
    extras = bool(trace) and (
        trace[0].accel_active is not None or trace[0].enforced_count is not None
    )
    lines = [TRACE_COLUMNS + (_EXTRA_COLUMNS if extras else "")]
    for r in trace:
        row = (
            f"{r.k},{_fmt(r.objective)},{r.nnz},{r.pattern.packed_hex()},"
            f"{_fmt(r.u_step)},{r.comm_coords},{_fmt(r.wallclock)}"
        )
        if extras:
            row += f",{0 if r.accel_active is None else r.accel_active}"
            row += f",{0 if r.enforced_count is None else r.enforced_count}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def trace_to_csv(trace, path):
    """Write the canonical trace CSV; returns the text written."""
    text = trace_csv_text(trace)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _resolve_gamma(config, default, low, high, high_inclusive, algo):
    gamma = default if config.gamma is None else float(config.gamma)
    ok = gamma > low and (gamma <= high if high_inclusive else gamma < high)
    if not ok:
        bracket = "]" if high_inclusive else ")"
        raise ValueError(
            f"{algo}: gamma={gamma:g} outside admissible ({low:g}, {high:g}{bracket}"
        )
    return gamma


def _step_norm(a, b) -> float:
    """||a - b||, computed as np.linalg.norm does (same bytes) without its
    argument dispatch."""
    d = (a - b).ravel(order="K")
    return math.sqrt(d.dot(d))


def _quiet_divergence(run):
    """Run a solver inside one np.errstate(over="ignore", invalid="ignore"):
    a diverging run overflows in its last iterations, and its status, not a
    RuntimeWarning, reports that."""
    @functools.wraps(run)
    def quiet_run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return run(*args, **kwargs)
    return quiet_run


class _Tracer:
    """Applies the trace cadence and records how the run ended."""

    def __init__(self, problem, config, gamma):
        self.problem = problem
        self.every = config.trace_every
        self.keep_u = config.keep_u
        self.structure_count = problem.reg.collection.structure_count
        self.log = TraceLog(gamma, config.seed)

    def record(self, k, x, pattern, u, u_step, comm=0, clock=0.0,
               accel=None, enforced=None):
        self.log.iterations = k
        if (k - 1) % self.every == 0:
            self.log.append(
                TraceRecord(
                    k=k,
                    objective=self.problem.objective(x),
                    pattern=pattern,
                    nnz=self.structure_count(pattern),
                    u_step=u_step,
                    comm_coords=comm,
                    wallclock=clock,
                    accel_active=accel,
                    enforced_count=enforced,
                    u=u.copy() if self.keep_u else None,
                )
            )

    def finish(self, x, pattern, status):
        self.log.status = status
        self.log.converged = status == CONVERGED
        return StructuredPoint(np.asarray(x), pattern, "prox"), self.log


def _start_point(problem, x0):
    if x0 is None:
        return problem.zero_point()
    x0 = np.asarray(x0, dtype=float)
    expected = problem.zero_point().shape
    if x0.shape != expected:
        raise ValueError(f"x0 shape {x0.shape} != {expected}")
    return x0.copy()


@_quiet_divergence
def run_pg(problem, config=None, x0=None):
    """Proximal gradient: u_{k+1} = x_k - gamma * grad f(x_k)."""
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    gamma = _resolve_gamma(
        config, 1.0 / f.lipschitz, 0.0, 2.0 / f.lipschitz, False, "pg"
    )
    x = _start_point(problem, x0)
    u_prev = x
    tracer = _Tracer(problem, config, gamma)
    pattern = None
    for k in range(1, config.max_iter + 1):
        u = x - gamma * f.gradient(x)
        u_step = _step_norm(u, u_prev)
        if not math.isfinite(u_step):
            return tracer.finish(x, pattern, DIVERGED)
        res = g.prox(u, gamma)
        x, pattern = res.point, res.pattern
        u_prev = u
        tracer.record(k, x, pattern, u, u_step)
        if k > 1 and u_step <= config.stop_tol:
            return tracer.finish(x, pattern, CONVERGED)
    return tracer.finish(x, pattern, MAX_ITER)


@_quiet_divergence
def run_apg(problem, config=None, x0=None):
    """Accelerated proximal gradient with momentum (k-1)/(k+3).

    The first step has zero momentum and therefore coincides with a plain
    proximal gradient step.
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    gamma = _resolve_gamma(
        config, 1.0 / f.lipschitz, 0.0, 1.0 / f.lipschitz, True, "apg"
    )
    x = _start_point(problem, x0)
    x_prev = x
    u_prev = x
    tracer = _Tracer(problem, config, gamma)
    pattern = None
    for k in range(1, config.max_iter + 1):
        alpha = (k - 1.0) / (k + 3.0)
        y = x + alpha * (x - x_prev)
        u = y - gamma * f.gradient(y)
        u_step = _step_norm(u, u_prev)
        if not math.isfinite(u_step):
            return tracer.finish(x, pattern, DIVERGED)
        res = g.prox(u, gamma)
        x_prev, x, pattern = x, res.point, res.pattern
        u_prev = u
        tracer.record(k, x, pattern, u, u_step)
        if k > 1 and u_step <= config.stop_tol:
            return tracer.finish(x, pattern, CONVERGED)
    return tracer.finish(x, pattern, MAX_ITER)


@_quiet_divergence
def run_dr(problem, config=None, x0=None):
    """Douglas-Rachford splitting; needs a prox for the smooth part.

    u_{k+1} = prox_{gamma f}(2 x_k - u_k) + u_k - x_k, then the usual prox of
    g. Converges for any gamma > 0; the default is 1/L when the oracle
    advertises a Lipschitz constant, else 1.
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    if not getattr(f, "has_prox", False):
        raise ValueError("douglas-rachford needs a smooth term with a prox")
    default = 1.0 / f.lipschitz if f.lipschitz > 0 else 1.0
    gamma = _resolve_gamma(config, default, 0.0, np.inf, False, "dr")
    u = _start_point(problem, x0)
    res = g.prox(u, gamma)
    x, pattern = res.point, res.pattern
    tracer = _Tracer(problem, config, gamma)
    for k in range(1, config.max_iter + 1):
        u_new = f.prox(2.0 * x - u, gamma) + u - x
        u_step = _step_norm(u_new, u)
        if not math.isfinite(u_step):
            return tracer.finish(x, pattern, DIVERGED)
        res = g.prox(u_new, gamma)
        x, pattern = res.point, res.pattern
        u = u_new
        tracer.record(k, x, pattern, u, u_step)
        if k > 1 and u_step <= config.stop_tol:
            return tracer.finish(x, pattern, CONVERGED)
    return tracer.finish(x, pattern, MAX_ITER)


@_quiet_divergence
def run_saga(problem, config=None, x0=None):
    """SAGA over the oracle's components with a stored-gradient table.

    Draws i_k uniformly with the seeded generator, replaces the stored
    gradient of the drawn component, and keeps the running table mean exact
    to within float accumulation. Because single steps are noisy, the stop
    rule asks for a window-averaged u-step below stop_tol with the current
    step below 3 * stop_tol.
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    comps = f.components
    if not comps:
        raise ValueError("saga needs an oracle with finite-sum components")
    m = len(comps)
    l_max = max(c.lipschitz for c in comps)
    gamma = _resolve_gamma(
        config, 1.0 / (3.0 * l_max), 0.0, 1.0 / (3.0 * l_max), True, "saga"
    )
    rng = np.random.default_rng(config.seed)
    x = _start_point(problem, x0)
    table = [c.gradient(x) for c in comps]
    table_mean = np.mean(table, axis=0)
    u_prev = x
    window = max(20, 2 * m)
    recent = deque(maxlen=window)
    tracer = _Tracer(problem, config, gamma)
    pattern = None
    for k in range(1, config.max_iter + 1):
        i = int(rng.integers(m))
        grad_i = comps[i].gradient(x)
        u = x - gamma * (grad_i - table[i] + table_mean)
        u_step = _step_norm(u, u_prev)
        if not math.isfinite(u_step):
            return tracer.finish(x, pattern, DIVERGED)
        table_mean = table_mean + (grad_i - table[i]) / m
        table[i] = grad_i
        res = g.prox(u, gamma)
        x, pattern = res.point, res.pattern
        u_prev = u
        recent.append(u_step)
        tracer.record(k, x, pattern, u, u_step)
        if (
            k > window
            and sum(recent) / len(recent) <= config.stop_tol
            and u_step <= 3.0 * config.stop_tol
        ):
            return tracer.finish(x, pattern, CONVERGED)
    return tracer.finish(x, pattern, MAX_ITER)


def fixed_point_residual(problem, x, gamma) -> float:
    """||x - prox_{gamma g}(x - gamma grad f(x))||: zero exactly at minimizers."""
    u = x - gamma * problem.smooth.gradient(x)
    return float(np.linalg.norm(x - problem.reg.prox(u, gamma).point))
