"""Wrappers around proxident's public entry points, installed from outside.

Nothing in ``src/`` knows about the benchmark. ``Instrument`` replaces the
entry points in every ``proxident`` module namespace (and in the solver
registry) by wrappers, and puts the originals back on ``uninstall``.

Two levels:

* always: each solver run is timed and its iteration count, convergence
  flag and final pattern recorded (two clock reads per run; this is where
  ``solve_s`` and the per-run latencies come from);
* traced passes only: every call into a layer opens a span (name, start,
  end, parent) and bumps a count. A span's self time is its duration minus
  the time its child spans cover.
"""

import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import proxident.bundles as bundles
import proxident.cli as cli
import proxident.identification as identification
import proxident.manifolds as manifolds
import proxident.problems as problems
import proxident.prox as prox
import proxident.registry as registry
import proxident.replicate as replicate
import proxident.solvers as solvers

COMPONENT_TAG = "_perfbench_component"


@dataclass
class SolverRun:
    solver: str
    seconds: float
    iterations: int
    converged: bool
    pattern: str  # packed hex of the final pattern ("" if the run raised)
    comm_coords: int = 0  # dave-pg: coordinates sent over the whole run
    accel_steps: int = 0  # pg-adaptive: accepted inertial steps
    error: str | None = None
    end: float = 0.0  # perf_counter at the end of the run
    scale: float = 1.0  # yardstick scale of the run, set by the harness


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self, keep_spans):
        self.keep_spans = keep_spans
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [name, span index, start, time covered by children]
        self._depth = Counter()
        self.count = Counter()
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)  # a name nested in itself: once
        self.counters = Counter()  # plain counts, no span (numpy svd)
        self.solver = None  # name of the open solver run
        self.in_solver = Counter()  # (solver, span name) -> calls in its runs
        self.solver_subtree_self_s = 0.0
        self.origin = perf_counter()

    def open(self, name):
        self.count[name] += 1
        self._depth[name] += 1
        if self.solver is not None:
            self.in_solver[self.solver, name] += 1
        idx = -1
        if self.keep_spans:
            idx = len(self.span_name)
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(self._name_ids[name])
            self.span_parent.append(self._stack[-1][1] if self._stack else -1)
            self.span_end.append(0.0)
            start = perf_counter()
            self.span_start.append(start - self.origin)
        else:
            start = perf_counter()
        self._stack.append([name, idx, start, 0.0])

    def close(self):
        end = perf_counter()
        name, idx, start, children = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        self._depth[name] -= 1
        if not self._depth[name]:
            self.outer_s[name] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if self.solver is not None:
            self.solver_subtree_self_s += duration - children
        if idx >= 0:
            self.span_end[idx] = end - self.origin

    def span(self, name, fn):
        def wrapped(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return wrapped

    def save(self, path):
        """Write the kept spans (times in seconds from the pass start)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _proxident_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "proxident" or name.startswith("proxident.")]


class Instrument:
    """Installs and removes the wrappers; collects the solver runs."""

    def __init__(self):
        self.runs = []
        self.tracer = None
        self.after_run = None  # called with the seconds of each untraced run
        self._solver_undo = []
        self._trace_undo = []

    # -- patching helpers -------------------------------------------------
    @staticmethod
    def _replace_everywhere(undo, original, replacement):
        """Rebind every proxident module name bound to original."""
        for mod in _proxident_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))

    @staticmethod
    def _replace_attr(undo, owner, attr, replacement):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @staticmethod
    def _restore(undo):
        while undo:
            owner, attr, original = undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- always on: solver runs -------------------------------------------
    def install_solvers(self):
        for name, fn in list(registry.SOLVERS.items()):
            wrapped = self._timed_solver(name, fn)
            self._solver_undo.append((registry.SOLVERS, name, fn))
            registry.SOLVERS[name] = wrapped
            self._replace_everywhere(self._solver_undo, fn, wrapped)

    def uninstall_solvers(self):
        self._restore(self._solver_undo)

    def _timed_solver(self, name, fn):
        def run(*args, **kwargs):
            tracer = self.tracer
            if tracer is not None:
                tracer.open("solvers.run." + name)
                tracer.solver = name
            start = perf_counter()
            try:
                point, trace = fn(*args, **kwargs)
            except Exception as exc:
                end = perf_counter()
                self.runs.append(SolverRun(name, end - start, 0, False, "",
                                           error=repr(exc), end=end))
                self._after_run(end - start)
                raise
            finally:
                if tracer is not None:
                    tracer.close()
                    tracer.solver = None
            end = perf_counter()
            record = SolverRun(name, end - start, trace.iterations,
                               bool(trace.converged),
                               point.pattern.packed_hex(), end=end)
            if name == "dave-pg" and trace:
                record.comm_coords = trace[-1].comm_coords
            if name == "pg-adaptive":
                record.accel_steps = sum(r.accel_active or 0 for r in trace)
            self.runs.append(record)
            self._after_run(record.seconds)
            return point, trace
        return run

    def _after_run(self, seconds):
        # not in traced passes: a traced span around the solver's caller
        # (replicate.fig2) would count the hook's time as its own
        if self.after_run is not None and self.tracer is None:
            self.after_run(seconds)

    # -- traced passes: spans ---------------------------------------------
    def install_tracing(self, tracer):
        self.tracer = tracer
        undo = self._trace_undo
        attr = self._replace_attr
        everywhere = self._replace_everywhere

        orig_prox = prox.Regularizer.prox

        def reg_prox(reg, u, gamma):
            tracer.open("prox.prox." + reg.kind)
            try:
                return orig_prox(reg, u, gamma)
            finally:
                tracer.close()
        attr(undo, prox.Regularizer, "prox", reg_prox)
        attr(undo, prox.Regularizer, "value",
             tracer.span("prox.value", prox.Regularizer.value))

        def by_role(main, component, fn):
            def wrapped(oracle, *args):
                tracer.open(component if getattr(oracle, COMPONENT_TAG, False)
                            else main)
                try:
                    return fn(oracle, *args)
                finally:
                    tracer.close()
            return wrapped
        smooth = problems.SmoothOracle
        attr(undo, smooth, "gradient",
             by_role("problems.gradient", "problems.component_gradient",
                     smooth.gradient))
        attr(undo, smooth, "value",
             by_role("problems.value", "problems.component_value",
                     smooth.value))
        for cls in (problems.LeastSquaresOracle, problems.MatrixLSOracle):
            attr(undo, cls, "prox", tracer.span("problems.smooth_prox",
                                                cls.prox))
            attr(undo, cls, "__init__", tracer.span("problems.oracle_build",
                                                    cls.__init__))
        orig_split = problems.LeastSquaresOracle.split

        def split(oracle, n_components):
            parts = orig_split(oracle, n_components)
            for part in parts:
                setattr(part, COMPONENT_TAG, True)
            return parts
        attr(undo, problems.LeastSquaresOracle, "split", split)
        attr(undo, problems.CompositeProblem, "objective",
             tracer.span("problems.objective",
                         problems.CompositeProblem.objective))

        for name, fn in (
            ("problems.gen", problems.gen_qc_lasso),
            ("problems.gen", problems.gen_lasso),
            ("problems.gen", problems.gen_lowrank_matrix_problem),
            ("manifolds.collection_build", manifolds.coordinate_zeros),
            ("manifolds.collection_build", manifolds.adjacent_pairs),
            ("manifolds.collection_build", manifolds.rank_levels),
            ("manifolds.project", manifolds.project),
            ("identification.analyze", identification.analyze_trace),
            ("solvers.csv", solvers.trace_csv_text),
            ("solvers.csv", solvers.trace_to_csv),
            ("bundles.write", bundles.write_bundle),
            ("bundles.read", bundles.read_bundle),
            ("cli.main", cli.main),
            ("replicate.fig2", replicate.replicate_fig2),
        ):
            everywhere(undo, fn, tracer.span(name, fn))

        orig_svd = np.linalg.svd

        def svd(*args, **kwargs):
            tracer.counters["svd"] += 1
            return orig_svd(*args, **kwargs)
        attr(undo, np.linalg, "svd", svd)

    def uninstall_tracing(self):
        self._restore(self._trace_undo)
        self.tracer = None
