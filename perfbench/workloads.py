"""The four benchmark workloads.

Each workload turns the seed into a fixed list of inputs (``setup``, a
generator, so the harness can time each input), issues
its solver runs one at a time (``solve``), writes what a user of the package
would write (``emit``) and checks the outputs (``check``). Every call into
proxident goes through a module attribute (``problems.gen_lasso``, not an
imported name), so the wrappers in ``tracing`` see it.

Why each workload exists, and what it should and should not move, is in
README.md. The sizes below keep one pass between 3 and 13 s on a 2-core
machine at one BLAS thread (qc-sweep the longest: its runs make their
minimum of three passes and take 30-45 s), and make each pass hold enough
instances that its totals differ little from one seed to the next.
"""

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

import proxident.asynchronous as asynchronous
import proxident.bundles as bundles
import proxident.cli as cli
import proxident.exploit as exploit
import proxident.identification as identification
import proxident.manifolds as manifolds
import proxident.problems as problems
import proxident.prox as prox
import proxident.registry as registry
import proxident.replicate as replicate
import proxident.solvers as solvers

SOLVER_NAMES = ("pg", "apg", "dr", "saga", "dave-pg", "pg-adaptive",
                "predictor-corrector", "random-subspace")
AGREE_TOL = 1e-6  # solutions agree within AGREE_TOL * (1 + ||x||)


def instance_seed(seed, i):
    """Seed of the i-th instance of a run (stated in README.md)."""
    return int(seed) * 1000 + i


def solve_one(name, problem, config, **kwargs):
    """Issue one solver run; a raising run is recorded by the wrapper and
    counted as failed by the harness, and the workload goes on."""
    try:
        return registry.run_solver(name, problem, config, **kwargs)
    except Exception:  # noqa: BLE001 -- recorded as a failed run
        return None


def write_solve_outputs(outdir, problem, point, trace):
    """trace.csv and report.txt, as ``proxident solve`` writes them."""
    os.makedirs(outdir, exist_ok=True)
    solvers.trace_to_csv(trace, os.path.join(outdir, "trace.csv"))
    report = identification.analyze_trace(trace)
    with open(os.path.join(outdir, "report.txt"), "w") as fh:
        fh.write(identification.report_text(report))
        fh.write(f"converged={int(trace.converged)}\n")
        fh.write(f"iterations={trace.iterations}\n")
        fh.write(f"gamma={trace.gamma!r}\n")
        fh.write(f"objective={problem.objective(point.point)!r}\n")


def _agree(a, b):
    return float(np.linalg.norm(a - b)) <= AGREE_TOL * (
        1.0 + float(np.linalg.norm(a))
    )


def _bundle_bytes(path):
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


# ---------------------------------------------------------------------------
@dataclass
class QcSweep:
    """Certified qc-lasso instances, all eight registered solvers each.

    The seed picks which of the acceptance gate's 100 instances (instance
    seeds 0..99, on which criterion 4 is asserted) a run solves. Outside
    that set, dave-pg at its default step diverges on some instances with
    these delays (instance seed 7008 is one), a defect this benchmark does
    not gate.
    """

    YARDSTICK = "mixed"  # see yardstick.py

    instances: int = 50
    gated: int = 100
    n: int = 20
    s: int = 5
    delta: float = 0.5

    def setup(self, seed, workdir):
        picked = np.random.default_rng(seed).permutation(self.gated)
        for iseed in picked[:self.instances].tolist():
            problem = problems.gen_qc_lasso(n=self.n, s=self.s,
                                            delta=self.delta, seed=iseed)
            star = manifolds.pattern_of(problem.xstar, problem.reg.collection)
            yield iseed, problem, star

    def solve(self, inputs, seed, workdir):
        results = []
        for iseed, problem, _ in inputs:
            for name in SOLVER_NAMES:
                tol = 1e-9 if name in ("saga", "dave-pg",
                                       "random-subspace") else 1e-10
                config = solvers.SolverConfig(stop_tol=tol, max_iter=500_000,
                                              seed=iseed)
                kwargs = {}
                if name == "dave-pg":
                    kwargs["delay_model"] = asynchronous.DelayModel.uniform(
                        0.0, 3.0)
                if name == "random-subspace":
                    kwargs["sampler"] = exploit.SubspaceSamplerConfig(
                        seed=iseed)
                results.append(solve_one(name, problem, config, **kwargs))
        return results

    def emit(self, inputs, outputs, workdir):
        # the acceptance pipeline renders every trace; nothing is written
        return {"solvers.csv_bytes": sum(
            len(solvers.trace_csv_text(r[1])) for r in outputs if r is not None
        )}

    def check(self, inputs, outputs):
        """Every final pattern equals the certified support, and stays
        equal from the first stable trace position on."""
        bad = set()
        stars = [star for _, _, star in inputs for _ in SOLVER_NAMES]
        for idx, (result, star) in enumerate(zip(outputs, stars)):
            if result is None:
                bad.add(idx)
                continue
            point, trace = result
            report = identification.analyze_trace(trace)
            stable = trace[report.first_stable_iter:]
            if not point.pattern == star or not all(
                r.pattern == report.pattern_final for r in stable
            ):
                bad.add(idx)
        return bad, []


# ---------------------------------------------------------------------------
@dataclass
class LassoBundle:
    """The user's CLI path: ``proxident gen lasso``, one read, five solvers."""

    YARDSTICK = "gram"  # see yardstick.py

    instances: int = 4
    m: int = 200
    n: int = 400
    density: float = 0.05
    solvers: tuple = ("pg", "apg", "pg-adaptive", "predictor-corrector",
                      "random-subspace")

    def setup(self, seed, workdir):
        for i in range(self.instances):
            iseed = instance_seed(seed, i)
            path = os.path.join(workdir, f"lasso-{i}")
            argv = ["gen", "lasso", "--m", str(self.m), "--n", str(self.n),
                    "--density", repr(self.density), "--seed", str(iseed),
                    "--out", path]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"proxident gen lasso exited {code}")
            yield iseed, path, bundles.read_bundle(path)

    def solve(self, inputs, seed, workdir):
        results = []
        for iseed, _, problem in inputs:
            for name in self.solvers:
                config = solvers.SolverConfig(stop_tol=1e-10,
                                              max_iter=100_000, seed=iseed)
                kwargs = {}
                if name == "random-subspace":
                    kwargs["sampler"] = exploit.SubspaceSamplerConfig(
                        seed=iseed)
                results.append(solve_one(name, problem, config, **kwargs))
        return results

    def emit(self, inputs, outputs, workdir):
        k = len(self.solvers)
        for idx, result in enumerate(outputs):
            if result is not None:
                _, path, problem = inputs[idx // k]
                write_solve_outputs(
                    os.path.join(path, self.solvers[idx % k]), problem,
                    *result)
        return {"bundles.bytes": sum(_bundle_bytes(path)
                                     for _, path, _ in inputs)}

    def check(self, inputs, outputs):
        """Converged, equal final supports, pairwise agreement."""
        bad = set()
        k = len(self.solvers)
        for i in range(len(inputs)):
            group = list(range(i * k, (i + 1) * k))
            for a in group:
                if outputs[a] is None:
                    bad.add(a)
                    continue
                for b in group:
                    if b <= a or outputs[b] is None:
                        continue
                    pa, pb = outputs[a][0], outputs[b][0]
                    if not pa.pattern == pb.pattern or not _agree(pa.point,
                                                                 pb.point):
                        bad.update((a, b))
        return bad, []


# ---------------------------------------------------------------------------
@dataclass
class Lowrank:
    """replicate fig2, plus masked low-rank completion solved by pg and
    pg-adaptive."""

    YARDSTICK = "mixed"  # see yardstick.py

    fig2_instances: int = 50
    completions: int = 6
    size: int = 50
    rank: int = 5
    observed: float = 0.6
    lam: float = 5.0

    def setup(self, seed, workdir):
        for i in range(self.completions):
            rng = np.random.default_rng(instance_seed(seed, i))
            left = rng.standard_normal((self.size, self.rank))
            right = rng.standard_normal((self.size, self.rank))
            mask = (rng.random((self.size, self.size))
                    < self.observed).astype(float)
            observed = mask * (left @ right.T)
            problem = problems.CompositeProblem(
                smooth=problems.matrix_ls_oracle(observed, mask),
                reg=prox.Regularizer.nuclear(self.size, self.size, self.lam),
            )
            yield problem

    def solve(self, inputs, seed, workdir):
        fig2 = replicate.replicate_fig2(
            seed=seed, outdir=os.path.join(workdir, "fig2"),
            instances=self.fig2_instances)
        results = []
        for problem in inputs:
            for name in ("pg", "pg-adaptive"):
                config = solvers.SolverConfig(stop_tol=1e-9, max_iter=20_000)
                results.append(solve_one(name, problem, config))
        return fig2, results

    def emit(self, inputs, outputs, workdir):
        _, results = outputs
        for idx, result in enumerate(results):
            if result is not None:
                i, name = divmod(idx, 2)
                write_solve_outputs(
                    os.path.join(workdir, f"completion-{i}",
                                 ("pg", "pg-adaptive")[name]),
                    inputs[i], *result)
        return {}

    def check(self, inputs, outputs):
        """Criterion 6 statistics on fig2; rank recovery on completion."""
        fig2, results = outputs
        n_fig2 = 2 * self.fig2_instances
        bad, notes = set(), []
        well = np.array(fig2["finals"]["well-posed"])
        degen = np.array(fig2["finals"]["degenerate"])
        if not (np.mean(well == 4) >= 0.9 and degen.mean() >= well.mean()):
            notes.append("fig2 group statistics (criterion 6) do not hold")
            bad.update(range(n_fig2))
        for idx, result in enumerate(results):
            collection = inputs[idx // 2].reg.collection
            if result is None or collection.structure_count(
                result[0].pattern
            ) != self.rank:
                bad.add(n_fig2 + idx)
        return bad, notes


# ---------------------------------------------------------------------------
@dataclass
class Segment1d:
    """Weighted 1-D denoising of piecewise-constant signals: tv1d (pg, apg)
    and potts1d (pg)."""

    YARDSTICK = "mixed"  # see yardstick.py

    signals: int = 20
    n_tv: int = 200
    n_potts: int = 100
    segment_length: int = 25
    noise: float = 0.2
    lam_tv: float = 1.0
    lam_potts: float = 2.0

    def _signal(self, rng, n):
        jumps = np.sort(rng.choice(np.arange(1, n), replace=False,
                                   size=n // self.segment_length))
        levels = rng.uniform(-2.0, 2.0, size=jumps.size + 1)
        truth = np.repeat(levels, np.diff(np.concatenate(([0], jumps, [n]))))
        weights = np.where(rng.random(n) < 0.5, 1.0, 0.3)
        y = truth + self.noise * rng.standard_normal(n)
        return np.diag(weights), weights * y

    def setup(self, seed, workdir):
        for i in range(self.signals):
            rng = np.random.default_rng(instance_seed(seed, i))
            for kind, n, lam in (("tv1d", self.n_tv, self.lam_tv),
                                 ("potts1d", self.n_potts, self.lam_potts)):
                design, b = self._signal(rng, n)
                reg = getattr(prox.Regularizer, kind)(n, lam)
                smooth = problems.least_squares_oracle(design, b)
                yield kind, problems.CompositeProblem(smooth, reg)

    def solve(self, inputs, seed, workdir):
        results = []
        for kind, problem in inputs:
            names = ("pg", "apg") if kind == "tv1d" else ("pg",)
            for name in names:
                config = solvers.SolverConfig(stop_tol=1e-10, max_iter=50_000)
                results.append((kind, problem, name,
                                solve_one(name, problem, config)))
        return results

    def emit(self, inputs, outputs, workdir):
        for idx, (kind, problem, name, result) in enumerate(outputs):
            if result is not None:
                write_solve_outputs(
                    os.path.join(workdir, f"{idx}-{kind}-{name}"), problem,
                    *result)
        return {}

    def check(self, inputs, outputs):
        """Small fixed-point residual; tv1d pg and apg agree."""
        bad = set()
        for idx, (kind, problem, name, result) in enumerate(outputs):
            if result is None:
                bad.add(idx)
                continue
            point, trace = result
            residual = solvers.fixed_point_residual(problem, point.point,
                                                    trace.gamma)
            if residual > 1e-8 * (1.0 + float(np.linalg.norm(point.point))):
                bad.add(idx)
            if kind == "tv1d" and name == "apg":
                ref = outputs[idx - 1][3]
                if ref is None or not _agree(ref[0].point, point.point):
                    bad.update((idx - 1, idx))
        return bad, []


FULL = {
    "qc-sweep": QcSweep,
    "lasso-bundle": LassoBundle,
    "lowrank": Lowrank,
    "segment-1d": Segment1d,
}
SMOKE = {
    "qc-sweep": dict(instances=2),
    "lasso-bundle": dict(instances=1, m=60, n=120),
    "lowrank": dict(fig2_instances=3, size=30, rank=3, observed=0.6, lam=2.0),
    "segment-1d": dict(signals=1, n_tv=80, n_potts=40, segment_length=20),
}


def make(name, smoke=False):
    return FULL[name](**(SMOKE[name] if smoke else {}))
