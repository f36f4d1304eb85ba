"""Fingerprint every run output the package emits, to compare two checkouts.

Usage (from the root of a checkout, no flags):

    python tools/trace_fingerprints.py > fingerprints.txt

and ``diff`` the files of two checkouts. The first line is a comment that
names the numpy version and the BLAS it was built with
(``stack_line``). ``tests/trace_fingerprints.txt`` holds this output at 1
BLAS thread, and a Tier-1 test compares a fresh run with it; a change that
moves a line updates that file:

    OPENBLAS_NUM_THREADS=1 python tools/trace_fingerprints.py \
        > tests/trace_fingerprints.txt

Every other line is ``case,solver,sha256``;
the hash covers a run's trace CSV, final point, final pattern, status,
iteration count, convergence flag, gamma and seed, plus the ``keep_u``
vectors where kept. Cases:

* ``qc-<seed>``: the acceptance gate's 100 certified instances x 8 solvers,
  with the gate's configuration (and ``keep_u`` on);
* ``qc-outcomes``: one line hashing (seed, solver, status, iterations, final
  pattern) of those 800 runs, which stays equal when only step sizes' last
  bits move a trace;
* ``qc-reports``: one line hashing the identification report
  (``report_text(analyze_trace(trace))``) of each of those 800 runs;
* ``lasso-every3``: a 60x120 lasso at ``trace_every=3``;
* ``diverge-*``: the seed-7008 DAve-PG run and an overshooting problem;
* ``diverge-start``: one line per solver started from x0 = 1e308 on
  gate-shaped instance 1, hashing its status, iteration count and trace
  CSV, or ``raised <type>`` when the run raises;
* ``draws-*``: the solvers that draw from a generator, off the gate's
  settings: DAve-PG under ``constant:2`` and ``geometric:0.5`` delays, and
  SAGA over 3 components;
* ``lowrank``, ``rank``, ``tv1d``, ``potts1d``, ``l0``: the other prox kinds;
* ``diagonal-l1``, ``diagonal-tv1d``, ``diagonal-potts1d``: a weighted
  60-point signal denoised through the square diagonal design diag(w),
  w in {1, 0.3}, as the segment-1d benchmark's designs are, over 4
  components so that every solver runs;
* ``lowrank-structure``: the ``lowrank`` (nuclear) and ``rank`` runs hashed
  without their trace's objective column, one line per kind and solver, so
  that a change in the objective's last bits shows as the only change;
* ``replicate-fig<N>``: one line per emitted file, keyed by file name;
* ``cli-lasso``: ``proxident gen lasso`` then ``solve`` (exit code,
  trace.csv and report.txt);
* ``cli-gen``: one line per ``proxident gen`` invocation in ``GEN_ARGV``,
  keyed by kind and seed, hashing the exit code and every bundle file's
  name and bytes; each kind is run on its defaults and on every flag given;
* ``cli-solve``: one line per ``proxident solve`` invocation in
  ``SOLVE_ARGV`` on the ``cli-lasso`` bundle, keyed by solver and seed,
  hashing the exit code, trace.csv and report.txt: each solver-specific
  flag, predictor-corrector (which has none) on its defaults, and a ``pg``
  run whose settings come from a ``--config`` file;
* ``collections``: one line per structure collection built by
  ``coordinate_zeros``, ``adjacent_pairs`` or ``rank_levels``, hashing
  ``pattern_of`` and ``project`` on seeded points with signed zeros, tiny,
  subnormal and NaN entries; ``project`` takes seeded patterns, the
  all-zero and all-one ones and one of the wrong length on vector
  collections. On rank ones both refuse, and their rejections are hashed;
* ``kernels-1d``: one line per 1-D prox kernel and size n in {2, 17, 33,
  50, 100, 200, 2000}, hashing ``prox_tv1d`` and ``prox_potts1d`` outputs
  (point bytes and ``packed_hex``) on seeded Gaussian, integer-valued and
  piecewise-constant plus noise inputs at steps from 1e-12 to 1e6; 17 and
  33 put a right end just past the Potts DP's first and second block of 16,
  and 100 is the size the segment-1d benchmark denoises;
* ``kernels-spectral``: one line per SVD-based prox kernel and shape in
  {1x1, 1x7, 7x1, 6x6, 20x20, 30x12}, hashing ``prox_nuclear`` and
  ``prox_rank`` outputs (point bytes, ``packed_hex`` and ``value.hex()``)
  on seeded full-rank, rank-deficient and zero matrices, at steps that
  include lam = 0 and put the threshold exactly on a singular value.

A solver that rejects a problem fingerprints its error message. The BLAS
thread count changes trace bytes, so it is pinned to 1 unless
OPENBLAS_NUM_THREADS is already set. ``flat_step_lines`` gives the
printed predictor-corrector lines whose runs take its flat step, which the
tests compare at 1 and 2 threads.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import numpy as np  # noqa: E402

from proxident import cli  # noqa: E402
from proxident.asynchronous import DelayModel  # noqa: E402
from proxident.exploit import SubspaceSamplerConfig  # noqa: E402
from proxident.identification import analyze_trace, report_text  # noqa: E402
from proxident.manifolds import (  # noqa: E402
    SparsityPattern,
    adjacent_pairs,
    coordinate_zeros,
    pattern_of,
    project,
    rank_levels,
)
from proxident.problems import (  # noqa: E402
    CompositeProblem,
    LeastSquaresOracle,
    SmoothOracle,
    gen_lasso,
    gen_lowrank_matrix_problem,
    gen_qc_lasso,
)
from proxident.prox import (  # noqa: E402
    Regularizer,
    prox_nuclear,
    prox_potts1d,
    prox_rank,
    prox_tv1d,
)
from proxident.registry import SOLVERS, run_solver  # noqa: E402
from proxident.replicate import (  # noqa: E402
    replicate_fig1,
    replicate_fig2,
    replicate_fig3,
)
from proxident.solvers import SolverConfig, trace_csv_text  # noqa: E402

QC_INSTANCES = 100
QC_SHAPE = dict(n=20, s=5, delta=0.5)


def _sha(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _array_bytes(a):
    a = np.asarray(a, dtype=float)
    return repr(a.shape).encode() + np.ascontiguousarray(a).tobytes()


def _pattern_hex(point):
    return point.pattern.packed_hex() if point.pattern is not None else "-"


def run_digest(point, trace, objective=True):
    """sha256 of everything a run returns (without the trace's objective
    column when objective is False)."""
    text = trace_csv_text(trace)
    if not objective:
        rows = (row.split(",") for row in text.splitlines())
        text = "\n".join(",".join(row[:1] + row[2:]) for row in rows)
    parts = [text, _array_bytes(point.point),
             _pattern_hex(point),
             trace.status, trace.iterations, trace.converged,
             repr(trace.gamma), trace.seed]
    parts += [_array_bytes(u) for u in trace.u or ()]
    return _sha(parts)


def solver_lines(case, problem, config, names=None, kwargs=None,
                 outcomes=None, objective=True, reports=None):
    """One line per solver; a rejected problem hashes its error message.

    When outcomes is a list, each run also appends
    ``case,solver,status,iterations,pattern`` (or its error) to it; when
    reports is a list, ``case,solver,`` and the run's identification report
    text (or its error); the objective flag is run_digest's."""
    lines = []
    for name in names or SOLVERS:
        try:
            point, trace = run_solver(name, problem, config,
                                      **(kwargs or {}).get(name, {}))
            digest = run_digest(point, trace, objective)
            outcome = (f"{trace.status},{trace.iterations},"
                       f"{_pattern_hex(point)}")
            report = report_text(analyze_trace(trace)) if trace else "empty"
        except ValueError as exc:
            digest = _sha(["error", exc])
            outcome = report = f"error {exc}"
        lines.append(f"{case},{name},{digest}")
        if outcomes is not None:
            outcomes.append(f"{case},{name},{outcome}")
        if reports is not None:
            reports.append(f"{case},{name},{report}")
    return lines


def _qc_settings(name, seed):
    """The gate's (config, solver_lines kwargs) for solver name on
    certified instance seed."""
    tol = 1e-9 if name in ("saga", "dave-pg", "random-subspace") else 1e-10
    config = SolverConfig(stop_tol=tol, max_iter=500_000, seed=seed,
                          keep_u=True)
    kwargs = {"dave-pg": {"delay_model": DelayModel.uniform(0.0, 3.0)},
              "random-subspace": {
                  "sampler": SubspaceSamplerConfig(seed=seed)}}
    return config, kwargs


def qc_case(seed, outcomes=None, reports=None):
    """The acceptance gate's runs on certified instance ``seed``; their
    outcomes and identification reports go to the outcomes and reports
    lists when they are given."""
    problem = gen_qc_lasso(seed=seed, **QC_SHAPE)
    lines = []
    for name in SOLVERS:
        config, kwargs = _qc_settings(name, seed)
        lines += solver_lines(f"qc-{seed}", problem, config, [name], kwargs,
                              outcomes, reports=reports)
    return lines


def outcomes_line(outcomes):
    """The ``qc-outcomes`` line over the outcomes qc_case collected."""
    return f"qc-outcomes,all,{_sha(outcomes)}"


def reports_line(reports):
    """The ``qc-reports`` line over the reports qc_case collected."""
    return f"qc-reports,all,{_sha(reports)}"


DRAW_CONFIG = SolverConfig(stop_tol=1e-9, max_iter=500_000, seed=1,
                           keep_u=True)


def draw_lines():
    """DAve-PG under constant and geometric delays, and SAGA over 3
    components, on gate-shaped instance 1 (``uniform:0:3`` delays and 10
    components are the gate's own)."""
    problem = gen_qc_lasso(seed=1, **QC_SHAPE)
    lines = []
    for delay in ("constant:2", "geometric:0.5"):
        lines += solver_lines(
            f"draws-{delay.replace(':', '-')}", problem, DRAW_CONFIG,
            ["dave-pg"], {"dave-pg": {"delay_model": DelayModel.parse(delay)}})
    lines += solver_lines(
        "draws-3-components", gen_qc_lasso(seed=1, components=3, **QC_SHAPE),
        DRAW_CONFIG, ["saga"])
    return lines


class _Overshooting(SmoothOracle):
    """f(x) = 5 * ||x - 1||^2 advertising L = mu = 1, with the given
    components."""

    lipschitz = 1.0
    strong_convexity = 1.0

    def __init__(self, components=None):
        self.components = components

    def _value(self, x):
        return 5.0 * float(np.sum((x - 1.0) ** 2))

    def _gradient(self, x):
        return 10.0 * (x - 1.0)


def _overshooting_problem(n=4):
    """f of _Overshooting and two identical components: default steps
    overshoot, and every solver but DR (which needs a prox of f) diverges."""
    part = _Overshooting()
    return CompositeProblem(_Overshooting(components=[part, part]),
                            Regularizer.l1(n, 1e-3))


def diverge_start_lines():
    """The ``diverge-start`` lines: every solver from x0 = 1e308, where
    the first step overflows."""
    problem = gen_qc_lasso(seed=1, **QC_SHAPE)
    x0 = np.full(QC_SHAPE["n"], 1e308)
    lines = []
    for name in SOLVERS:
        try:
            _, trace = run_solver(name, problem, SolverConfig(), x0=x0)
            parts = [trace.status, trace.iterations, trace_csv_text(trace)]
        except Exception as exc:  # hashed, so the other lines still print
            parts = [f"raised {type(exc).__name__}"]
        lines.append(f"diverge-start,{name},{_sha(parts)}")
    return lines


KINDS_CONFIG = SolverConfig(stop_tol=1e-9, max_iter=2000, keep_u=True)


def _lowrank_problems():
    """(case, problem): a nuclear and a rank problem on the same data."""
    lowrank = gen_lowrank_matrix_problem(size=15, rank=3, seed=4)
    return [("lowrank", lowrank), ("rank", CompositeProblem(
        lowrank.smooth, Regularizer.rank(15, 15, 0.5)))]


def lowrank_structure_lines():
    """The ``lowrank`` and ``rank`` runs hashed without their objective
    column, one line per kind and solver."""
    lines = []
    for case, problem in _lowrank_problems():
        kind = problem.reg.kind
        for line in solver_lines("lowrank-structure", problem, KINDS_CONFIG,
                                 objective=False):
            _, name, digest = line.split(",")
            lines.append(f"lowrank-structure,{kind}-{name},{digest}")
    return lines


def other_cases():
    lines = solver_lines(
        "lasso-every3", gen_lasso(60, 120, seed=1, components=6),
        SolverConfig(stop_tol=1e-9, max_iter=3000, trace_every=3, keep_u=True))
    lines += solver_lines(
        "diverge-7008", gen_qc_lasso(seed=7008, **QC_SHAPE),
        SolverConfig(stop_tol=1e-9, max_iter=500_000, seed=7008), ["dave-pg"],
        {"dave-pg": {"delay_model": DelayModel.uniform(0.0, 3.0)}})
    lines += solver_lines("diverge-overshoot", _overshooting_problem(),
                          SolverConfig(max_iter=100_000, keep_u=True))
    lines += diverge_start_lines()
    lines += draw_lines()
    config = KINDS_CONFIG
    for case, problem in _lowrank_problems() + _vector_kind_problems():
        lines += solver_lines(case, problem, config)
    return lines


def _vector_kind_problems():
    """(case, problem): tv1d, potts1d and l0 on one lasso's data."""
    base = gen_lasso(40, 30, seed=2, components=4)
    return [(kind, CompositeProblem(base.smooth,
                                    getattr(Regularizer, kind)(30, lam)))
            for kind, lam in (("tv1d", 0.5), ("potts1d", 0.05), ("l0", 0.01))]


def _diagonal_problems():
    """(case, problem): l1, tv1d and potts1d on one weighted signal,
    f(x) = 0.5 * ||w * x - w * y||^2 written as the design diag(w)."""
    n = 60
    rng = np.random.default_rng(n)
    jumps = np.sort(rng.choice(np.arange(1, n), 3, replace=False))
    truth = np.repeat(rng.uniform(-2.0, 2.0, 4),
                      np.diff(np.concatenate(([0], jumps, [n]))))
    w = np.where(rng.random(n) < 0.5, 1.0, 0.3)
    y = truth + 0.2 * rng.standard_normal(n)
    smooth = LeastSquaresOracle(np.diag(w), w * y, components=4)
    return [(f"diagonal-{kind}", CompositeProblem(
        smooth, getattr(Regularizer, kind)(n, lam)))
        for kind, lam in (("l1", 0.1), ("tv1d", 1.0), ("potts1d", 2.0))]


def diagonal_lines():
    """The ``diagonal-*`` lines: every solver on each diagonal problem."""
    return [line for case, problem in _diagonal_problems()
            for line in solver_lines(case, problem, KINDS_CONFIG)]


FLAT_QC_SEEDS = (0, 1, 2, 3, 4)


def flat_step_lines():
    """predictor-corrector's lines on certified instances FLAT_QC_SEEDS
    and on the tv1d, potts1d and l0 cases, as main prints them: runs that
    take its flat step, a linear solve on the least-squares Gram."""
    name = "predictor-corrector"
    lines = []
    for seed in FLAT_QC_SEEDS:
        config, kwargs = _qc_settings(name, seed)
        lines += solver_lines(f"qc-{seed}", gen_qc_lasso(seed=seed, **QC_SHAPE),
                              config, [name], kwargs)
    for case, problem in _vector_kind_problems():
        lines += solver_lines(case, problem, KINDS_CONFIG, [name])
    return lines


def _file_lines(case, directory):
    lines = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            lines.append(f"{case},{name},{_sha([fh.read()])}")
    return lines


def replicate_lines():
    lines = []
    for figure, run in (("fig1", replicate_fig1), ("fig2", replicate_fig2),
                        ("fig3", replicate_fig3)):
        with tempfile.TemporaryDirectory() as out:
            run(seed=0, outdir=out)
            lines += _file_lines(f"replicate-{figure}", out)
    return lines


def cli_lines():
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "lasso")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gen", "lasso", "--m", "80", "--n", "40", "--seed", "3",
                      "--out", bundle])
        for name in SOLVERS:
            out = os.path.join(tmp, name)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve", name, bundle, "--stop-tol", "1e-9",
                                 "--max-iter", "20000", "--out", out])
            parts = [code]
            for fname in ("trace.csv", "report.txt"):
                with open(os.path.join(out, fname), "rb") as fh:
                    parts.append(fh.read())
            lines.append(f"cli-lasso,{name},{_sha(parts)}")
    return lines


GEN_ARGV = (
    "lasso --seed 1",
    "lasso --m 30 --n 50 --lam 0.5 --density 0.2 --noise 0 --components 3 "
    "--seed 2",
    "qc-lasso --seed 3",
    "qc-lasso --n 8 --m 12 --s 2 --delta 0.3 --lam 2 --components 4 "
    "--degenerate --seed 4",
    "lowrank --seed 5",
    "lowrank --size 7 --rank 2 --lam 0.5 --degenerate --seed 6",
)


def gen_lines():
    """One ``cli-gen`` line per invocation in GEN_ARGV. It calls only
    cli.main, so it runs on older checkouts too."""
    lines = []
    for argv in GEN_ARGV:
        argv = argv.split()
        with tempfile.TemporaryDirectory() as tmp:
            bundle = os.path.join(tmp, "bundle")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["gen", *argv, "--out", bundle])
            parts = [code]
            for name in sorted(os.listdir(bundle)):
                with open(os.path.join(bundle, name), "rb") as fh:
                    parts += [name, fh.read()]
        lines.append(f"cli-gen,{argv[0]}-{argv[-1]},{_sha(parts)}")
    return lines


STOP = "--stop-tol 1e-9 --max-iter 20000"
SOLVE_ARGV = (
    f"dave-pg {STOP} --delay uniform:0:3 --encoding sparse --seed 1",
    f"dave-pg {STOP} --delay geometric:0.5 --seed 2",
    f"predictor-corrector {STOP} --seed 3",
    f"random-subspace {STOP} --keep-prob 0.25 --seed 4",
    "pg --config CONF --seed 5",
)
# pg's settings, plus keys of other solvers' rows, which pg leaves alone
SOLVE_CONFIG = ("gamma=0.005\nmax-iter=400\nstop-tol=1e-7\n"
                "trace-every=3\ndelay=constant:2\nkeep-prob=0.9\n")


def solve_lines():
    """One ``cli-solve`` line per invocation in SOLVE_ARGV, run on the
    ``cli-lasso`` bundle. It calls only cli.main, so it runs on older
    checkouts too."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        bundle, conf = os.path.join(tmp, "lasso"), os.path.join(tmp, "conf")
        with open(conf, "w") as fh:
            fh.write(SOLVE_CONFIG)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gen", "lasso", "--m", "80", "--n", "40", "--seed", "3",
                      "--out", bundle])
        for number, argv in enumerate(SOLVE_ARGV):
            argv = [conf if a == "CONF" else a for a in argv.split()]
            out = os.path.join(tmp, str(number))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["solve", argv[0], bundle, *argv[1:],
                                 "--out", out])
            parts = [code]
            for fname in ("trace.csv", "report.txt"):
                with open(os.path.join(out, fname), "rb") as fh:
                    parts.append(fh.read())
            lines.append(f"cli-solve,{argv[0]}-{argv[-1]},{_sha(parts)}")
    return lines


COLLECTIONS = (
    (coordinate_zeros, (1,)), (coordinate_zeros, (7,)),
    (coordinate_zeros, (300,)), (adjacent_pairs, (2,)),
    (adjacent_pairs, (9,)), (adjacent_pairs, (300,)),
    (rank_levels, (1, 1)), (rank_levels, (4, 3)), (rank_levels, (6, 6)),
    (rank_levels, (2, 7)),
)


def _outcome(call, *args):
    """A pattern's or an array's bytes, or the error message raised."""
    try:
        out = call(*args)
    except ValueError as exc:
        return f"error {exc}"
    return out.packed_hex() if hasattr(out, "packed_hex") else _array_bytes(out)


def _vector_points(rng, n):
    """Half-integers (zeros, equal neighbours) with signed zeros, then the
    same with tiny, subnormal and NaN entries mixed in."""
    x = np.round(2.0 * rng.standard_normal(n)) / 2.0
    x[rng.random(n) < 0.2] = -0.0
    y = x.copy()
    y[rng.random(n) < 0.3] = rng.choice([1e-13, -1e-13, 5e-324, -5e-324, 1e-310])
    y[rng.random(n) < 0.1] = np.nan
    return [x, y, -x]


def _matrix_points(rng, rows, cols):
    """Exact products of every rank, a subnormal one, a signed zero, and a
    diagonal with a singular value just above the 1e-10 relative cut."""
    points = [rng.standard_normal((rows, r)) @ rng.standard_normal((r, cols))
              for r in range(min(rows, cols) + 1)]
    diagonal = np.zeros((rows, cols))
    np.fill_diagonal(diagonal, 1.5e-10 ** np.arange(min(rows, cols)))
    return points + [points[-1] * 1e-310, -np.zeros((rows, cols)), diagonal]


def collection_lines():
    """One line per collection: its patterns and projections."""
    lines = []
    for number, (build, dims) in enumerate(COLLECTIONS):
        rng = np.random.default_rng(number)
        coll = build(*dims)
        size = len(coll)
        if len(dims) == 2:
            points = _matrix_points(rng, *dims)
            patterns = [SparsityPattern(np.arange(size) != 0)]  # rejected
        else:
            points = _vector_points(rng, dims[0])
            patterns = [SparsityPattern(rng.random(size) < keep)
                        for keep in (0.3, 0.7, 0.95)]
            patterns += [SparsityPattern(np.zeros(length, dtype=bool))
                         for length in (size, size + 1)]
            patterns.append(SparsityPattern(np.ones(size, dtype=bool)))
        parts = [size]
        for x in points:
            parts.append(_outcome(pattern_of, x, coll))
            parts += [_outcome(project, coll, p, x) for p in patterns]
        name = "x".join(map(str, dims))
        lines.append(f"collections,{build.__name__}-{name},{_sha(parts)}")
    return lines


KERNEL_SIZES = (2, 17, 33, 50, 100, 200, 2000)
KERNEL_STEPS = (1e-12, 0.05, 0.5, 2.0, 1e6)


def _signals_1d(rng, n):
    """Gaussian, integer-valued (exact ties), and piecewise-constant plus
    noise inputs of length n."""
    runs = np.repeat(rng.integers(-3, 4, n // 10 + 1), 10)[:n]
    return [rng.standard_normal(n), rng.integers(-3, 4, n).astype(float),
            runs + 0.1 * rng.standard_normal(n)]


def kernel_lines():
    """One line per 1-D kernel and size: its points and patterns."""
    lines = []
    for n in KERNEL_SIZES:
        signals = _signals_1d(np.random.default_rng(n), n)
        for name, prox in (("tv1d", prox_tv1d), ("potts1d", prox_potts1d)):
            parts = []
            for u in signals:
                for step in KERNEL_STEPS:
                    res = prox(u, step)
                    parts += [_array_bytes(res.point),
                              res.pattern.packed_hex()]
            lines.append(f"kernels-1d,{name}-{n},{_sha(parts)}")
    return lines


SPECTRAL_SHAPES = ((1, 1), (1, 7), (7, 1), (6, 6), (20, 20), (30, 12))


def _spectral_cases(rng, rows, cols):
    """(matrix, steps): full-rank, rank-deficient and zero matrices, each
    with (gamma, lam) steps from lam = 0 up to past sigma_max. On a nonzero
    matrix two steps put the soft threshold gamma*lam and two the hard one
    sqrt(2*gamma*lam) exactly on sigma_max and on a middle singular value,
    as the kernels' own SVD returns them."""
    half = min(rows, cols) // 2
    matrices = [rng.standard_normal((rows, cols)),
                rng.standard_normal((rows, half))
                @ rng.standard_normal((half, cols)),
                np.zeros((rows, cols))]
    cases = []
    for a in matrices:
        steps = [(1.0, 0.0), (1e-12, 1.0), (0.5, 0.3), (1e6, 1.0)]
        s = np.linalg.svd(a, full_matrices=False)[1]
        for sigma in sorted({s[0], s[s.size // 2]} - {0.0}):
            # fl(sigma * sigma) has the correctly rounded root sigma
            steps += [(sigma, 1.0), (sigma * sigma / 2.0, 1.0)]
        cases.append((a, steps))
    return cases


def spectral_kernel_lines():
    """One line per SVD-based kernel and shape: points, patterns, values."""
    lines = []
    for rows, cols in SPECTRAL_SHAPES:
        cases = _spectral_cases(np.random.default_rng(rows * 100 + cols),
                                rows, cols)
        for name, prox in (("nuclear", prox_nuclear), ("rank", prox_rank)):
            parts = []
            for a, steps in cases:
                for gamma, lam in steps:
                    res = prox(a, gamma, lam)
                    parts += [_array_bytes(res.point),
                              res.pattern.packed_hex(), res.value.hex()]
            lines.append(f"kernels-spectral,{name}-{rows}x{cols},"
                         f"{_sha(parts)}")
    return lines


def stack_line():
    """A comment naming the numpy version and the BLAS it was built with:
    the stack a set of lines was made on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__} ({blas['name']} {blas['version']})"


def main():
    print(stack_line())
    outcomes, reports = [], []
    for seed in range(QC_INSTANCES):
        print("\n".join(qc_case(seed, outcomes, reports)))
    print(outcomes_line(outcomes))
    print(reports_line(reports))
    print("\n".join(other_cases() + diagonal_lines() + replicate_lines()
                    + cli_lines() + collection_lines() + kernel_lines()
                    + lowrank_structure_lines() + spectral_kernel_lines()
                    + gen_lines() + solve_lines()))


if __name__ == "__main__":
    main()
