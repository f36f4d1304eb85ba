"""Simulated asynchronous proximal gradient (DAve-PG) over worker oracles.

The solver runs a deterministic single-threaded discrete-event simulation
instead of real threads so that traces are exactly reproducible. Worker j
repeatedly computes its contribution

    c_j = x - gamma * grad f^j(x)

at the iterate x it last received; the master keeps u = mean_j c_j, and on
each completion event ingests the fresh contribution, applies the prox, and
sends the new iterate back to the finishing worker.

Task durations are 1 + d simulated seconds with d drawn from the delay
model. The delays are drawn in blocks (``DelayModel.samples``) from the
run's own generator, which gives the same stream, in the same order, as one
``DelayModel.sample`` per task. Completions sharing the same timestamp are
ingested as one batch with a single prox applied afterwards; with constant
delays all workers stay in lockstep and the iterate sequence reduces
exactly to the synchronous proximal gradient with the averaged gradient.
Continuous delay models never produce ties, so every batch is a single
arrival, i.e. one iteration per worker completion.

Contributions are initialized at the starting point (a synchronous round
zero): the master's table starts at c_j(x_0) and every worker begins its
first task there.

Communication accounting counts the coordinates of the iterates the master
sends to workers (the messages whose size the encoding changes): n per
message for the dense encoding, the number of nonzero entries for the
sparse key-value encoding. The initial broadcast of x_0 to the m workers is
included. comm_coords in the trace is cumulative; the wallclock column holds
the simulated event time. Delays are finite, but their sum can overflow: the
run ends "diverged" when the next event time is not finite, so every record
carries a finite wallclock.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .manifolds import _real
from .solvers import (
    SolverConfig,
    _advance,
    _Diverged,
    _block_draws,
    _iterate,
    _resolve_gamma,
    _start_point,
)

__all__ = ["DelayModel", "run_dave_pg"]


@dataclass(frozen=True)
class DelayModel:
    """Extra task delay on top of the unit compute time.

    kinds: constant(d), uniform(low, high) (continuous), geometric(q)
    (integer, support {0, 1, ...}); a is d, low or q and b is high. All have
    finite mean, so every worker completes infinitely often. The kind and
    its parameters (numbers, not bools) are checked when the model is built.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        _real("a", self.a)
        _real("b", self.b)
        if self.kind == "constant":
            if not (np.isfinite(self.a) and self.a >= 0):
                raise ValueError("constant delay must be finite and >= 0")
        elif self.kind == "uniform":
            if not (np.isfinite(self.a) and np.isfinite(self.b)
                    and 0 <= self.a <= self.b):
                raise ValueError("uniform delay needs finite 0 <= low <= high")
        elif self.kind == "geometric":
            if not 0 < self.a <= 1:
                raise ValueError("geometric delay needs q in (0, 1]")
        else:
            raise ValueError("delay kind must be constant, uniform or "
                             f"geometric, got {self.kind!r}")
        if self.kind != "uniform" and self.b != 0:
            raise ValueError(f"{self.kind} delay takes one parameter, got "
                             f"b={self.b!r}")

    @classmethod
    def constant(cls, d):
        return cls("constant", d)

    @classmethod
    def uniform(cls, low, high):
        return cls("uniform", low, high)

    @classmethod
    def geometric(cls, q):
        return cls("geometric", q)

    @classmethod
    def parse(cls, text):
        """Parse 'constant:2', 'uniform:0:3', or 'geometric:0.5'."""
        parts = str(text).split(":")
        try:
            if parts[0] == "constant" and len(parts) == 2:
                return cls.constant(float(parts[1]))
            if parts[0] == "uniform" and len(parts) == 3:
                return cls.uniform(float(parts[1]), float(parts[2]))
            if parts[0] == "geometric" and len(parts) == 2:
                return cls.geometric(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad delay model {text!r}: {exc}") from exc
        raise ValueError(f"bad delay model {text!r}")

    def sample(self, rng) -> float:
        if self.kind == "constant":
            return self.a
        if self.kind == "uniform":
            return float(rng.uniform(self.a, self.b))
        return float(rng.geometric(self.a) - 1)

    def samples(self, rng, size) -> list:
        """size delays as a list of floats: the values, in order, of size
        calls of sample(rng), drawn with one generator call."""
        if self.kind == "constant":
            return [self.a] * size
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size).tolist()
        return np.subtract(rng.geometric(self.a, size), 1.0).tolist()


def run_dave_pg(problem, config=None, delay_model=DelayModel.constant(0.0),
                encoding="dense", x0=None):
    """Asynchronous proximal gradient over the problem's components.

    One worker runs per component of the oracle (the generators create the
    row partition). Requires a strongly convex aggregate oracle (mu > 0);
    the default stepsize is the upper end of the admissible range,
    gamma = 2/(mu + L).
    """
    config = config or SolverConfig()
    f, g = problem.smooth, problem.reg
    comps = f.components
    if not comps:
        raise ValueError("dave-pg needs an oracle with finite-sum components")
    m = len(comps)
    mu = f.strong_convexity
    if mu <= 0:
        raise ValueError("dave-pg requires a strongly convex smooth term")
    if encoding not in ("dense", "sparse"):
        raise ValueError(f"encoding must be 'dense' or 'sparse', got "
                         f"{encoding!r}")
    top = 2.0 / (mu + f.lipschitz)
    gamma = _resolve_gamma(config, top, top, True, "dave-pg")
    rng = np.random.default_rng(config.seed)
    delays = _block_draws(lambda size: delay_model.samples(rng, size))

    x = _start_point(problem, x0)
    n = x.size

    def msg_cost(vec):
        return n if encoding == "dense" else int(np.count_nonzero(vec))

    contrib = np.empty((m,) + x.shape)  # row j: worker j's contribution
    base = [x.copy() for _ in range(m)]  # the iterate each worker holds
    events = []
    seq = comm = 0
    quiet = 0  # consecutive batches with a small u-step
    deliveries = [0] * m  # contributions each worker has delivered

    def step(k, x, pattern, u_prev):
        nonlocal seq, comm
        if k == 1:
            # synchronous round zero (here, inside the run's errstate):
            # contributions at x0, x0 broadcast to everyone, and the first
            # task of every worker starts there
            for j in range(m):
                contrib[j] = x - gamma * comps[j].gradient(x)
            comm = m * msg_cost(x)
            for j in range(m):
                heapq.heappush(events, (1.0 + next(delays), seq, j))
                seq += 1
            u_prev = np.add.reduce(contrib, 0) / m
        t, _, j = heapq.heappop(events)
        if not math.isfinite(t):  # the simulated clock overflowed
            raise _Diverged
        batch = [j]
        while events and events[0][0] == t:
            batch.append(heapq.heappop(events)[2])
        for j in batch:
            contrib[j] = base[j] - gamma * comps[j].gradient(base[j])
            deliveries[j] += 1
        u = np.add.reduce(contrib, 0) / m
        u_step, res = _advance(g, u, u_prev, gamma)
        for j in batch:
            base[j] = res.point
            comm += msg_cost(res.point)
            heapq.heappush(events, (t + 1.0 + next(delays), seq, j))
            seq += 1
        return u, u_step, res, {"comm_coords": comm, "wallclock": t}

    def stop(k, u_step, x):
        # a single small arrival can be a coincidence (the first deliveries
        # repeat the round-zero contributions exactly): require one quiet
        # sweep over the workers, all of which must have re-reported since
        # receiving a post-round-zero iterate
        nonlocal quiet
        quiet = quiet + 1 if u_step <= config.stop_tol else 0
        return quiet >= m and min(deliveries) >= 2

    return _iterate(problem, config, gamma, step, x, stop=stop)
