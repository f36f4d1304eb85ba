"""Pass loop, metrics and report of one workload run.

A pass is the whole workload once: set-up from the seed, the solver runs
(one at a time), the files a user would write, and the correctness checks.
A run repeats the pass, on the same inputs, until --seconds have elapsed
(at least MIN_PASSES times) and reduces each time to its median over the
passes (see ``end_to_end``). Every time is first scaled
by the yardstick samples taken around it (see ``yardstick``), so the host's
speed drops out; the measured times are printed too. A traced run
(--trace 1) alternates untraced and traced passes, so the tracing overhead
is measured on the same inputs in the same process.
"""

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import proxident
import tracing
import workloads
import yardstick

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
EDGE_SAMPLES = 20  # yardstick samples at the start and the end of a pass
HARD_STOP_S = 120.0  # no new pass after this, whatever --seconds says
ACCOUNTING_TOLERANCE = 0.02  # traced self times vs solve_s
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

EXPLOIT_SOLVERS = ("pg-adaptive", "predictor-corrector", "random-subspace")


# -- environment ------------------------------------------------------------
def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint(seed, blas_threads):
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "commit": _git_commit(),
        "seed": seed,
    }


# -- statistics ---------------------------------------------------------------
def tail_percentile(n_runs):
    """Highest percentile of n_runs samples with at least 10 beyond it
    (never below the median)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n_runs))


def _per_item(rows, pick):
    """Pass-by-pass lists of per-item times -> pick(times of one item over
    the passes), item by item."""
    return [pick(column) for column in zip(*rows)]


# -- one pass -----------------------------------------------------------------
def run_pass(workload, inst, seed, workdir, ys):
    """Run the workload once; returns the pass record. The yardstick is
    sampled at both ends of the pass, after each input, (untraced) after
    each solver run, and after the output and checks; the time it takes is
    left out of the pass's."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inst.runs = []
    gc.collect()
    ys.sample(EDGE_SAMPLES)
    spent = ys.spent
    inputs, setup_spans = [], []
    t0 = tick = perf_counter()
    for item in workload.setup(seed, workdir):
        setup_spans.append((tick, perf_counter()))
        inputs.append(item)
        ys.follow(setup_spans[-1][1] - tick)
        tick = perf_counter()
    outputs = workload.solve(inputs, seed, workdir)
    t1 = perf_counter()
    extra = workload.emit(inputs, outputs, workdir)
    bad, notes = workload.check(inputs, outputs)
    t2 = perf_counter()
    spent = ys.spent - spent
    ys.follow(t2 - t1)
    ys.sample(EDGE_SAMPLES)
    window = ys.window()
    runs = inst.runs
    inst.runs = []
    for r in runs:
        r.scale = window.scale(r.end - r.seconds, r.end)
    setup_items = [end - start for start, end in setup_spans]
    bad.update(i for i, r in enumerate(runs) if r.error or not r.converged)
    digest = hashlib.sha256(
        "\n".join(f"{r.solver}:{r.pattern}" for r in runs).encode()
    ).hexdigest()[:16]
    return {
        "setup_s": sum(setup_items),
        "setup_items": setup_items,
        "setup_scales": [window.scale(*span) for span in setup_spans],
        "solve_s": sum(r.seconds for r in runs),
        "wall_s": t2 - t0 - spent,
        "output_s": t2 - t1,
        "output_scale": window.scale(t1, t2),
        "scale": window.scale(),
        "runs": runs,
        "failed": len(bad),
        "notes": notes,
        "digest": digest,
        "extra": extra,
    }


def end_to_end(passes, scaled=True):
    """End-to-end metrics over the untraced passes of a run, in yardstick
    seconds (scaled=False: in measured seconds).

    Every time is first multiplied by its yardstick scale: a solver run's
    and an input's by the scale of the samples around them, the output and
    checks by the scale of the samples after them, the rest of a pass by
    the scale of the pass. setup_s sums, over the inputs, each
    input's median set-up time over the passes. A solver run's latency is
    its median time over the passes; solve_s sums them, and p50 and the
    tail are taken over the runs of one pass. wall_s is setup_s plus solve_s
    plus the median time a pass spent beyond them (output, checks, and the
    work inside replicate that is not a solver run).
    """
    def scaled_setup(p):
        if not scaled:
            return p["setup_items"]
        return [t * k for t, k in zip(p["setup_items"], p["setup_scales"])]
    setup_s = sum(_per_item([scaled_setup(p) for p in passes], median))
    latencies = _per_item(
        [[r.seconds * (r.scale if scaled else 1.0) for r in p["runs"]]
         for p in passes], median)
    solve_s = sum(latencies)
    def scaled_rest(p):
        output = p["output_s"]
        between = p["wall_s"] - p["setup_s"] - p["solve_s"] - output
        if not scaled:
            return between + output
        return between * p["scale"] + output * p["output_scale"]
    rest = median(scaled_rest(p) for p in passes)
    pct = tail_percentile(len(latencies))
    tail = float(np.percentile(latencies, pct))
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "wall_s": (setup_s + solve_s + rest, "s"),
        "solve_p50_ms": (1e3 * float(np.percentile(latencies, 50)), "ms"),
        "solve_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    beyond = sum(1 for x in latencies if x > tail)
    tail_note = (f"solve_tail_ms is p{pct:.4g} of {len(latencies)} run "
                 f"latencies ({beyond} beyond it)")
    return metrics, tail_note


def per_layer(tr, runs, solve_s, extra):
    """Per-layer metrics of one traced pass (see README for each name)."""
    iters = {}
    for r in runs:
        iters[r.solver] = iters.get(r.solver, 0) + r.iterations
    total_iters = sum(iters.values())
    prox_kinds = ("l1", "tv1d", "potts1d", "nuclear")
    prox_spans = [n for n in tr.count if n.startswith("prox.prox.")]
    prox_calls = sum(tr.count[n] for n in prox_spans)
    prox_self = sum(tr.self_s[n] for n in prox_spans)
    solver_spans = [n for n in tr.count if n.startswith("solvers.run.")]
    solver_self = sum(tr.self_s[n] for n in solver_spans)

    def in_solver(solver, prefix):
        return sum(c for (s, name), c in tr.in_solver.items()
                   if s == solver and name.startswith(prefix))

    adaptive_iters = iters.get("pg-adaptive", 0)
    metrics = {
        "prox.calls": (prox_calls, "count"),
        "prox.self_s": (prox_self, "s"),
        "prox.us_per_call": (1e6 * prox_self / max(prox_calls, 1), "us"),
        "prox.value_calls": (tr.count["prox.value"], "count"),
        "prox.value_s": (tr.self_s["prox.value"], "s"),
        "prox.svd_calls": (tr.counters["svd"], "count"),
        "prox.svd_per_nuclear_prox": (
            tr.counters["svd"] / max(tr.count["prox.prox.nuclear"], 1), "1"
        ),
        "problems.gen_calls": (tr.count["problems.gen"], "count"),
        "problems.oracle_builds": (tr.count["problems.oracle_build"], "count"),
        "problems.oracle_build_s": (tr.outer_s["problems.oracle_build"], "s"),
        "problems.grad_calls": (tr.count["problems.gradient"], "count"),
        "problems.component_grad_calls": (
            tr.count["problems.component_gradient"], "count"
        ),
        "problems.grad_s": (tr.self_s["problems.gradient"]
                            + tr.self_s["problems.component_gradient"], "s"),
        "problems.value_calls": (tr.count["problems.value"], "count"),
        "problems.value_s": (tr.self_s["problems.value"], "s"),
        "solvers.runs": (len(runs), "count"),
        "solvers.iterations": (total_iters, "count"),
        "solvers.converged_ratio": (
            sum(r.converged for r in runs) / max(len(runs), 1), "1"
        ),
        "solvers.self_s": (solver_self, "s"),
        "solvers.self_us_per_iter": (
            1e6 * solver_self / max(total_iters, 1), "us"
        ),
        "solvers.csv_s": (tr.outer_s["solvers.csv"], "s"),
        "asynchronous.events": (iters.get("dave-pg", 0), "count"),
        "asynchronous.comm_coords": (
            sum(r.comm_coords for r in runs), "count"
        ),
        "exploit.accel_accept_ratio": (
            sum(r.accel_steps for r in runs) / max(adaptive_iters, 1), "1"
        ),
        "manifolds.project_calls": (tr.count["manifolds.project"], "count"),
        "manifolds.collection_build_s": (
            tr.outer_s["manifolds.collection_build"], "s"
        ),
        "identification.analyze_s": (
            tr.outer_s["identification.analyze"], "s"
        ),
        "trace.accounted_ratio": (
            tr.solver_subtree_self_s / solve_s if solve_s else 0.0, "1"
        ),
    }
    metrics["bundles.bytes"] = (extra.get("bundles.bytes", 0), "count")
    for kind in prox_kinds:
        metrics[f"prox.calls.{kind}"] = (tr.count[f"prox.prox.{kind}"],
                                         "count")
    for name in workloads.SOLVER_NAMES:
        metrics[f"solvers.iterations.{name}"] = (iters.get(name, 0), "count")
    for name in EXPLOIT_SOLVERS:
        n_iter = max(iters.get(name, 0), 1)
        metrics[f"exploit.prox_per_iter.{name}"] = (
            in_solver(name, "prox.prox.") / n_iter, "1")
        metrics[f"exploit.grad_per_iter.{name}"] = (
            in_solver(name, "problems.gradient") / n_iter, "1")

    # times of layers that only some workloads reach: printed, and saved
    # with the spans, but not in the result line (a constant 0 is no
    # measurement)
    detail = {
        "problems.gen_s": tr.outer_s["problems.gen"],
        "manifolds.project_s": tr.outer_s["manifolds.project"],
        "bundles.write_s": tr.outer_s["bundles.write"],
        "bundles.read_s": tr.outer_s["bundles.read"],
        "cli.gen_s": tr.outer_s["cli.main"],
        "replicate.fig2_s": tr.outer_s["replicate.fig2"],
        "asynchronous.self_us_per_event": 1e6 * tr.self_s.get(
            "solvers.run.dave-pg", 0.0) / max(iters.get("dave-pg", 0), 1),
    }
    for kind in prox_kinds:
        detail[f"prox.us_per_call.{kind}"] = 1e6 * tr.self_s.get(
            f"prox.prox.{kind}", 0.0) / max(tr.count[f"prox.prox.{kind}"], 1)
    for name in workloads.SOLVER_NAMES:
        detail[f"solvers.self_us_per_iter.{name}"] = 1e6 * tr.self_s.get(
            f"solvers.run.{name}", 0.0) / max(iters.get(name, 0), 1)
    return metrics, detail


# -- the run ------------------------------------------------------------------
def _loop(seconds, passes_needed, do_pass):
    """Call do_pass until seconds elapse; at least passes_needed times."""
    start = perf_counter()
    count = 0
    longest = 0.0
    while True:
        t = perf_counter()
        do_pass(count)
        count += 1
        longest = max(longest, perf_counter() - t)
        elapsed = perf_counter() - start
        if count >= passes_needed and (
            elapsed + longest > seconds or elapsed > HARD_STOP_S
        ):
            return


def main(args, blas_threads):
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(proxident.__file__).startswith(src + os.sep):
        print(f"perfbench: imported proxident from {proxident.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, smoke=args.smoke)
    env = fingerprint(args.seed, blas_threads)
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    inst = tracing.Instrument()
    inst.install_solvers()
    ys = yardstick.Yardstick(workload.YARDSTICK)
    inst.after_run = ys.follow
    plain, traced = [], []
    try:
        if args.trace:
            tracers = []

            def do_pass(i):
                plain.append(run_pass(workload, inst, args.seed, workdir,
                                      ys))
                tracer = tracing.Tracer(keep_spans=not tracers)
                inst.install_tracing(tracer)
                try:
                    traced.append(run_pass(workload, inst, args.seed,
                                           workdir, ys))
                finally:
                    inst.uninstall_tracing()
                tracers.append(tracer)
            _loop(args.seconds, MIN_TRACED_PASSES, do_pass)
        else:
            _loop(args.seconds, MIN_PASSES,
                  lambda i: plain.append(run_pass(workload, inst, args.seed,
                                                  workdir, ys)))
    finally:
        inst.uninstall_solvers()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    passes = plain + traced
    attempted = sum(len(p["runs"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = sorted({n for p in passes for n in p["notes"]})
    digests = {p["digest"] for p in passes}
    iterations = {sum(r.iterations for r in p["runs"]) for p in passes}
    if len(digests) != 1 or len(iterations) != 1:
        notes.append("final patterns or iteration counts differ between "
                     "passes on the same inputs")
    runs_per_pass = len(plain[0]["runs"])
    print(f"# passes={len(plain)} untraced, {len(traced)} traced; "
          f"runs_per_pass={runs_per_pass} attempted={attempted} "
          f"failed={failed} fail_ratio={failed / max(attempted, 1)!r}")
    print(f"# patterns_digest={plain[0]['digest']} "
          f"solvers.iterations={sum(r.iterations for r in plain[0]['runs'])}")
    for key, value in sorted(plain[0]["extra"].items()):
        print(f"# {key}={value}")
    for i, p in enumerate(passes):
        kind = "traced" if i >= len(plain) else "untraced"
        print(f"# pass {i} {kind}: scale={p['scale']:.4f} measured "
              f"setup_s={p['setup_s']:.4f} solve_s={p['solve_s']:.4f} "
              f"wall_s={p['wall_s']:.4f}")

    if args.trace:
        metrics, detail = {}, {}
        per_pass = [per_layer(t, p["runs"], p["solve_s"], p["extra"])
                    for t, p in zip(tracers, traced)]
        for name in per_pass[0][0]:
            values = [m[name][0] for m, _ in per_pass]
            unit = per_pass[0][0][name][1]
            if unit == "count":
                if len(set(values)) != 1:
                    notes.append(f"count {name} differs between traced "
                                 "passes")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (median(values), unit)
        for name in per_pass[0][1]:
            detail[name] = median([d[name] for _, d in per_pass])
        overhead = (median([p["wall_s"] * p["scale"] for p in traced])
                    / median([p["wall_s"] * p["scale"] for p in plain]) - 1.0)
        metrics["trace.overhead_ratio"] = (overhead, "1")
        accounted = metrics["trace.accounted_ratio"][0]
        if abs(1.0 - accounted) > ACCOUNTING_TOLERANCE:
            notes.append(f"traced self times cover {accounted:.4f} of "
                         f"solve_s (tolerance {ACCOUNTING_TOLERANCE})")
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
        tracers[0].save(stem + "-spans.npz")
        with open(stem + "-layers.json", "w") as fh:
            json.dump({"env": env, "metrics": metrics, "detail": detail},
                      fh, indent=1, sort_keys=True)
        for name, value in sorted(detail.items()):
            print(f"# detail {name} = {value!r}")
        print(f"# spans of the first traced pass: {stem}-spans.npz")
    else:
        metrics, tail_note = end_to_end(plain)
        print(f"# {tail_note}")
        for name, (value, unit) in end_to_end(plain, scaled=False)[0].items():
            print(f"# measured {name} = {value!r} {unit}")

    for note in notes:
        print(f"# CHECK FAILED: {note}")
    correct = not notes and failed == 0
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
