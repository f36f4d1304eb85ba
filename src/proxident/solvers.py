"""Proximal solvers with a common iteration and trace contract.

Every solver follows the same template: an update step produces u_{k+1},
then x_{k+1} = prox_{gamma*g}(u_{k+1}) with the prox module supplying the
exact structure pattern of the iterate. The loop moves to the new pattern
object only when its bit bytes differ from the current one's, so a trace
holds one pattern per structure change, not one per iteration. The solvers
differ only in how they compute u, so they share one iteration loop,
``_iterate``. Each ``run_*`` validates its arguments, resolves gamma and
hands ``_iterate`` a ``step`` closure, step(k, x_{k-1}, pattern_{k-1},
u_{k-1}) -> (u_k, u_step, prox result, extra trace fields), usually through
``_advance``, which takes the u-step ||u_k - u_{k-1}|| and then the prox.
The loop records iteration k at the trace cadence (with a copy of u_k under
keep_u); the recorded objective is f(x_k) plus the value g(x_k) the prox
reported (``ProxResult.value``), so g is never evaluated twice on a point.
Then it asks the stop rule: by default k > 1 and u_step <= stop_tol; SAGA,
DAve-PG and random subspace descent pass their own ``stop`` closure,
stop(k, u_step, x_k). The run ends "converged" when the rule holds,
"max_iter" when the iterations run out, and "diverged" when a step or stop
rule raises ``_Diverged``: ``_advance`` does so when the u-step is not
finite, before the prox. Each run holds numpy's overflow and invalid-value
warnings off (``_quiet``; Douglas-Rachford's start prox included), so a
diverging run ends with that status and no RuntimeWarning.

A run returns (ProxResult, TraceLog): the prox result of its last (finite)
iterate, which holds the point, its exact pattern and g at the point, and
the trace so far, whose ``status`` says how the run ended (a run whose
first step diverges returns its start point, with value None). The trace
is a ``TraceLog``: one typed array per numeric column and one list of
shared pattern objects, so a row costs a few machine words rather than a
record object; ``TraceRecord`` rows are built only when the log is
indexed or iterated.

Default stepsizes are taken from the oracle constants: gamma = 1/L for the
proximal gradient and its accelerated variant, 1/(3*L_max) for SAGA
(component-wise constants), and 1/L for Douglas-Rachford. When that L is 0
(f is affine) the default is 1 and any positive value is admissible.

Trace CSV schema: ``k,objective,nnz,pattern_hash,u_step,comm_coords,
wallclock_s`` (structure-adaptive solvers append ``accel_active,
enforced_count``). The wallclock column is the solver's deterministic
logical clock -- simulated seconds for the asynchronous solver, zero for the
synchronous ones -- so that identical runs emit byte-identical files.
"""

import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .manifolds import SparsityPattern, _integer, _real
from .prox import ProxResult

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
    serialized to CSV). max_iter and trace_every must be positive integers,
    seed a nonnegative one, stop_tol a finite number >= 0, gamma None or
    a number, none a bool, and keep_u a bool; a bad value raises a
    ValueError naming its field.
    """

    gamma: float | None = None
    max_iter: int = 100_000
    stop_tol: float = 1e-10
    seed: int = 0
    trace_every: int = 1
    keep_u: bool = False

    def __post_init__(self):
        _integer("max_iter", self.max_iter, 1)
        _integer("trace_every", self.trace_every, 1)
        _integer("seed", self.seed, 0)
        if self.gamma is not None:
            _real("gamma", self.gamma)
        _real("stop_tol", self.stop_tol)
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0):
            raise ValueError("stop_tol must be finite and nonnegative, "
                             f"got {self.stop_tol!r}")
        if not isinstance(self.keep_u, bool):
            raise ValueError(f"keep_u must be a bool, got {self.keep_u!r}")


@dataclass(slots=True)
class TraceRecord:
    """One trace row: what ``TraceLog`` indexing and iteration give back."""

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


class TraceLog:
    """A run's trace, one column per record field, plus run metadata.

    k, nnz and comm_coords are ``array('q')``; objective, u_step and
    wallclock are ``array('d')``, which give each float64 back exactly.
    patterns is a list with one pattern object per row: while the pattern
    stays the same, consecutive rows hold the same object (see
    ``_iterate``). The first row decides the optional columns:
    accel_active and enforced_count are ``array('q')`` columns when it
    reports either (a value not reported reads 0, as in the CSV), and u is
    a list when it carries u (keep_u); otherwise they are None, and later
    rows' values for them are not kept. status is CONVERGED, MAX_ITER or
    DIVERGED once the run has ended; iterations counts the iterations run,
    recorded or not.

    Rows read as TraceRecords built on demand: ``log[i]``, ``log[a:b]`` (a
    list, as a list's slice) and iteration. ``len`` counts the rows.
    """

    def __init__(self, gamma=None, seed=None):
        self.gamma = gamma
        self.seed = seed
        self.status = None
        self.iterations = 0
        self.k = array("q")
        self.objective = array("d")
        self.patterns = []
        self.nnz = array("q")
        self.u_step = array("d")
        self.comm_coords = array("q")
        self.wallclock = array("d")
        self.accel_active = self.enforced_count = self.u = None

    def append(self, k, objective, pattern, nnz, u_step, comm_coords=0,
               wallclock=0.0, accel_active=None, enforced_count=None,
               u=None):
        """Add one row (the TraceRecord fields, in their order)."""
        if not self.k:
            if accel_active is not None or enforced_count is not None:
                self.accel_active, self.enforced_count = array("q"), array("q")
            if u is not None:
                self.u = []
        self.k.append(k)
        self.objective.append(objective)
        self.patterns.append(pattern)
        self.nnz.append(nnz)
        self.u_step.append(u_step)
        self.comm_coords.append(comm_coords)
        self.wallclock.append(wallclock)
        if self.accel_active is not None:
            self.accel_active.append(0 if accel_active is None
                                     else accel_active)
            self.enforced_count.append(0 if enforced_count is None
                                       else enforced_count)
        if self.u is not None:
            self.u.append(u)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def pattern_keys(self):
        """Each row's pattern bit bytes, read only where the pattern object
        changes."""
        keys = []
        last = key = None
        for pattern in self.patterns:
            if pattern is not last:
                last, key = pattern, pattern.bits.tobytes()
            keys.append(key)
        return keys

    def __len__(self):
        return len(self.k)

    def _records(self, index=None):
        """TraceRecords for the rows the slice index selects; every row,
        read from the columns without a copy, when index is None."""
        columns = (self.k, self.objective, self.patterns, self.nnz,
                   self.u_step, self.comm_coords, self.wallclock,
                   self.accel_active, self.enforced_count, self.u)
        if index is not None:
            columns = [None if c is None else c[index] for c in columns]
        return map(TraceRecord, *(repeat(None) if c is None else c
                                  for c in columns))

    def __iter__(self):
        return self._records()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._records(index))
        i = range(len(self.k))[index]
        return next(self._records(slice(i, i + 1)))


TRACE_COLUMNS = "k,objective,nnz,pattern_hash,u_step,comm_coords,wallclock_s"
_EXTRA_COLUMNS = ",accel_active,enforced_count"


def _fmt(v: float) -> str:
    """The text of a float in traces and figures. trace_csv_text maps repr
    over its float columns, whose items are already Python floats; a change
    here must be made there too."""
    return repr(float(v))


def trace_csv_text(log) -> str:
    """Render a TraceLog in the canonical CSV schema; the extra columns
    appear when the log has them. Each distinct pattern is packed once,
    looked up by its bit bytes. A float column's items are Python floats,
    so repr maps over it directly: the text _fmt gives (keep the two
    alike)."""
    keys = log.pattern_keys()
    hexes = {}
    for key, pattern in zip(keys, log.patterns):
        if key not in hexes:
            hexes[key] = pattern.packed_hex()
    rows = [
        f"{k},{objective},{nnz},{hexes[key]},{u_step},{comm},{wallclock}"
        for k, objective, nnz, key, u_step, comm, wallclock in zip(
            log.k, map(repr, log.objective), log.nnz, keys,
            map(repr, log.u_step), log.comm_coords, map(repr, log.wallclock))
    ]
    header = TRACE_COLUMNS
    if log.accel_active is not None:
        header += _EXTRA_COLUMNS
        rows = [f"{row},{a},{e}" for row, a, e in zip(
            rows, log.accel_active, log.enforced_count)]
    return "\n".join([header] + rows) + "\n"


def trace_to_csv(trace, path):
    """Write the canonical trace CSV; returns the text written."""
    text = trace_csv_text(trace)
    with open(path, "w") as fh:
        fh.write(text)
    return text


def _resolve_gamma(config, default, high, high_inclusive, algo):
    gamma = default if config.gamma is None else float(config.gamma)
    ok = gamma > 0.0 and (gamma <= high if high_inclusive else gamma < high)
    if not ok:
        bracket = "]" if high_inclusive else ")"
        raise ValueError(
            f"{algo}: gamma={gamma:g} outside admissible (0, {high:g}{bracket}"
        )
    return gamma


def _lipschitz_gamma(config, lipschitz, high_factor, high_inclusive, algo):
    """_resolve_gamma with the default 1/L and the bound high_factor/L for
    L = lipschitz. When L = 0 (f is affine) the default is 1 and every
    gamma > 0 is admissible, as for Douglas-Rachford."""
    if lipschitz > 0:
        return _resolve_gamma(config, 1.0 / lipschitz, high_factor / lipschitz,
                              high_inclusive, algo)
    return _resolve_gamma(config, 1.0, math.inf, False, algo)


def _step_norm(a, b) -> float:
    """||a - b||, computed as np.linalg.norm does (same bytes) without its
    argument dispatch."""
    d = a - b
    if d.ndim != 1:
        d = d.ravel(order="K")
    return math.sqrt(d.dot(d))


class _Diverged(Exception):
    """Raised inside a run when it leaves the finite range; the driver ends
    the run there with status DIVERGED."""


def _quiet():
    """The numpy error state a run computes in: overflow and invalid values
    give inf and NaN without a RuntimeWarning, and the run's own checks end
    it."""
    return np.errstate(over="ignore", invalid="ignore")


def _advance(g, u, u_prev, gamma):
    """(||u - u_prev||, prox_{gamma g}(u)); raises _Diverged before the prox
    when the u-step is not finite."""
    u_step = _step_norm(u, u_prev)
    if not math.isfinite(u_step):
        raise _Diverged
    return u_step, g.prox(u, gamma)


def _iterate(problem, config, gamma, step, x, u_prev=None, pattern=None,
             stop=None):
    """The iteration loop every solver runs; returns (ProxResult, log).

    step(k, x, pattern, u_prev) -> (u, u_step, res, extras) computes
    iteration k from the previous iterate: res is the prox result holding
    x_k and its pattern, extras the solver's extra trace fields
    (comm_coords, wallclock, accel_active, enforced_count).
    stop(k, u_step, x_k), asked after iteration k is recorded, defaults to
    k > 1 and u_step <= stop_tol. Either may raise _Diverged.

    The returned result is the last step's; when the first step diverges,
    it is ProxResult(x, pattern) of the start point and the given pattern.

    The pattern object changes only when the pattern does: the loop takes
    ``res.pattern`` only when its bit bytes differ from the current
    pattern's; otherwise the next step receives the current object again.
    A recorded row whose pattern has the previous recorded row's bit bytes
    stores that row's pattern object and count, so a trace holds one
    pattern object per change between its rows, at any trace_every.
    Patterns are read-only and compare by their bytes, so sharing changes
    nothing a reader of the trace or a step sees.
    """
    log = TraceLog(gamma, config.seed)
    f_value = problem.smooth.value
    structure_count = problem.reg.collection.structure_count
    every, keep_u, tol = config.trace_every, config.keep_u, config.stop_tol
    if u_prev is None:
        u_prev = x
    status = MAX_ITER
    res = None
    # the current pattern's bit bytes; the last recorded pattern object,
    # its bit bytes and its count
    key = None if pattern is None else pattern.bits.tobytes()
    shared = shared_key = count = None
    with _quiet():
        try:
            for k in range(1, config.max_iter + 1):
                u, u_step, res, extras = step(k, x, pattern, u_prev)
                x, u_prev = res.point, u
                res_key = res.pattern.bits.tobytes()
                if res_key != key:
                    pattern, key = res.pattern, res_key
                log.iterations = k
                if (k - 1) % every == 0:
                    if key != shared_key:
                        shared, shared_key = pattern, key
                        count = structure_count(pattern)
                    log.append(k, f_value(x) + res.value, shared, count,
                               u_step, u=u.copy() if keep_u else None,
                               **extras)
                if (stop(k, u_step, x) if stop is not None
                        else k > 1 and u_step <= tol):
                    status = CONVERGED
                    break
        except _Diverged:
            status = DIVERGED
    log.status = status
    return (ProxResult(x, pattern) if res is None else res), log


# a run draws from its private generator this many values at a time
_DRAW_BLOCK = 256


def _block_draws(block):
    """Iterator over block(_DRAW_BLOCK), one list after another.

    block(size) returns size draws from a run's own generator as a list.
    numpy's array draws are the stream of its one-at-a-time draws, so the
    run sees the values one draw per iteration would give, in that order;
    the unused rest of the last block is never read.
    """
    while True:
        yield from block(_DRAW_BLOCK)


def _start_point(problem, x0):
    if x0 is None:
        return problem.zero_point()
    x0 = np.asarray(x0, dtype=float)
    expected = problem.zero_point().shape
    if x0.shape != expected:
        raise ValueError(f"x0 shape {x0.shape} != {expected}")
    return x0.copy()


def run_pg(problem, config=None, x0=None):
    """Proximal gradient: u_{k+1} = x_k - gamma * grad f(x_k)."""
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    gamma = _lipschitz_gamma(config, f.lipschitz, 2.0, False, "pg")

    def step(k, x, pattern, u_prev):
        u = x - gamma * f.gradient(x)
        u_step, res = _advance(g, u, u_prev, gamma)
        return u, u_step, res, {}

    return _iterate(problem, config, gamma, step, _start_point(problem, x0))


def run_apg(problem, config=None, x0=None):
    """Accelerated proximal gradient with momentum (k-1)/(k+3).

    The first step has zero momentum and therefore coincides with a plain
    proximal gradient step.
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    gamma = _lipschitz_gamma(config, f.lipschitz, 1.0, True, "apg")
    x_prev = _start_point(problem, x0)

    def step(k, x, pattern, u_prev):
        nonlocal x_prev
        alpha = (k - 1.0) / (k + 3.0)
        y = x + alpha * (x - x_prev)
        u = y - gamma * f.gradient(y)
        x_prev = x
        u_step, res = _advance(g, u, u_prev, gamma)
        return u, u_step, res, {}

    return _iterate(problem, config, gamma, step, x_prev)


def run_dr(problem, config=None, x0=None):
    """Douglas-Rachford splitting; needs a prox for the smooth part.

    u_{k+1} = prox_{gamma f}(2 x_k - u_k) + u_k - x_k, then the usual prox of
    g. Converges for any gamma > 0; the default is 1/L when the oracle's
    Lipschitz constant L is positive, else 1.
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    if not f.has_prox:
        raise ValueError("douglas-rachford needs a smooth term with a prox")
    gamma = _lipschitz_gamma(config, f.lipschitz, math.inf, False, "dr")
    u0 = _start_point(problem, x0)
    with _quiet():  # x_0 = prox(u_0) may overflow g's value, as a step can
        res = g.prox(u0, gamma)

    def step(k, x, pattern, u_prev):
        u = f.prox(2.0 * x - u_prev, gamma) + u_prev - x
        u_step, res = _advance(g, u, u_prev, gamma)
        return u, u_step, res, {}

    return _iterate(problem, config, gamma, step, res.point, u_prev=u0,
                    pattern=res.pattern)


def run_saga(problem, config=None, x0=None):
    """SAGA over the oracle's components with a stored-gradient table.

    Draws i_k uniformly with the seeded generator, replaces the stored
    gradient of the drawn component, and keeps the running table mean exact
    to within float accumulation. The indices are drawn in blocks
    (``rng.integers(m, size)``) from the run's own generator: the same
    stream, in the same order, as one ``rng.integers(m)`` per iteration.
    Because single steps are noisy, the stop rule asks for a window-averaged
    u-step below stop_tol with the current step below 3 * stop_tol.
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    comps = f.components
    if not comps:
        raise ValueError("saga needs an oracle with finite-sum components")
    m = len(comps)
    l_max = max(c.lipschitz for c in comps)
    gamma = _lipschitz_gamma(config, 3.0 * l_max, 1.0, True, "saga")
    rng = np.random.default_rng(config.seed)
    indices = _block_draws(lambda size: rng.integers(m, size=size).tolist())
    table = table_mean = None
    window = max(20, 2 * m)
    recent = deque(maxlen=window)

    def step(k, x, pattern, u_prev):
        nonlocal table, table_mean
        if k == 1:  # the table starts at x_0, filled inside the run's errstate
            table = [c.gradient(x) for c in comps]
            table_mean = np.mean(table, axis=0)
        i = next(indices)
        grad_i = comps[i].gradient(x)
        change = grad_i - table[i]
        u = x - gamma * (change + table_mean)
        u_step, res = _advance(g, u, u_prev, gamma)
        table_mean = table_mean + change / m
        table[i] = grad_i
        recent.append(u_step)
        return u, u_step, res, {}

    def stop(k, u_step, x):
        # the scalar test before the window's sum: neither has side effects
        return (
            k > window
            and u_step <= 3.0 * config.stop_tol
            and sum(recent) / len(recent) <= config.stop_tol
        )

    return _iterate(problem, config, gamma, step, _start_point(problem, x0),
                    stop=stop)


def fixed_point_residual(problem, x, gamma) -> float:
    """||x - prox_{gamma g}(x - gamma grad f(x))||: zero exactly at minimizers."""
    u = x - gamma * problem.smooth.gradient(x)
    return float(np.linalg.norm(x - problem.reg.prox(u, gamma).point))
