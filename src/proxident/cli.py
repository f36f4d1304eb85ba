"""Experiment harness: gen / solve / replicate / screen.

Exit codes: 0 success, 1 usage or data error, 2 solver ended without
converging (max_iter reached or the run diverged; the ``status=`` line of
report.txt says which). The default seed comes from --seed, then a --config
file, then the PROXIDENT_SEED environment variable, then 0. Commands pass
the library only the settings a flag or a config file gives, so defaults are
the library's own; a ``gen`` flag has one only where the generator has none.
A flag of one solver's or figure's own settings (its ``_OWN`` row) exits 1
on any other run. A config file may hold any row's keys, so one defaults
file serves every command, but a key that no row has exits 1.
"""

import argparse
import math
import os
import sys

import numpy as np

from .asynchronous import DelayModel
from .bundles import (
    BundleError,
    _read_shaped,
    read_bundle,
    read_key_values,
    write_bundle,
)
from .exploit import SubspaceSamplerConfig
from .identification import analyze_trace, enlarged_bound_l1, report_text
from .manifolds import _integer
from .problems import gen_lasso, gen_lowrank_matrix_problem, gen_qc_lasso
from .registry import SOLVERS, run_solver
from .replicate import replicate_fig1, replicate_fig2, replicate_fig3
from .solvers import SolverConfig, trace_to_csv

__all__ = ["build_parser", "main", "write_solve_outputs"]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which we reserve for
    # non-convergence)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# every solve run's settings, as (flag, keyword, cast)
_RUN = (("gamma", "gamma", float), ("max-iter", "max_iter", int),
        ("stop-tol", "stop_tol", float), ("trace-every", "trace_every", int))

# one row per solver or figure with settings of its own: (flag, keyword,
# cast[, help]); only the row's owner takes its flags (see _own)
_OWN = {
    "dave-pg": (("delay", "delay_model", DelayModel.parse,
                 "constant:d | uniform:lo:hi | geometric:q"),
                ("encoding", "encoding", str)),
    "random-subspace": (("keep-prob", "keep_probability", float),),
    "fig2": (("instances", "instances", int),),
}

_FIGURES = ("fig1", "fig2", "fig3")
_CONFIG_KEYS = {"seed", *(flag for row in (_RUN, *_OWN.values())
                          for flag, *_ in row)}


def _setting(args, conf, name, cast):
    """cast of the flag value if given, else of the config-file value, else
    None."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return cast(value)
    if name in conf:
        try:
            return cast(conf[name])
        except ValueError as exc:
            raise ValueError(f"config {name}={conf[name]!r}: {exc}") from exc
    return None


def _given(args, conf, settings):
    """{keyword: value} of each (name, keyword, cast[, help]) that a flag or
    the config file gives; the library's defaults hold for the others."""
    values = {key: _setting(args, conf, name, cast)
              for name, key, cast, *_ in settings}
    return {key: value for key, value in values.items() if value is not None}


def _own(args, conf, owner):
    """_given of owner's row, after refusing a flag of another's row."""
    for other, row in _OWN.items():
        for flag, *_ in row:
            if other != owner and getattr(args, flag.replace("-", "_"),
                                          None) is not None:
                raise ValueError(f"--{flag} is a setting of {other}, not of "
                                 f"{owner}")
    return _given(args, conf, _OWN.get(owner, ()))


def _config(path):
    """The key=value defaults of a --config file ({} without one); a key
    that no command takes is refused, naming the file."""
    conf = read_key_values(path) if path else {}
    for key in conf:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}: unknown key {key!r}; known: "
                             f"{', '.join(sorted(_CONFIG_KEYS))}")
    return conf


def _seed(text):
    return _integer("seed", int(text), 0)


def _resolve_seed(args, conf):
    seed = _setting(args, conf, "seed", _seed)
    if seed is not None:
        return seed
    env = os.environ.get("PROXIDENT_SEED")
    if env:
        try:
            return _seed(env)
        except ValueError as exc:
            raise ValueError(f"PROXIDENT_SEED={env!r}: {exc}") from None
    return 0


def build_parser():
    parser = _Parser(prog="proxident",
                     description="structure-aware proximal optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance bundle")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    # one row per kind: its generator and its flags as (name, type[,
    # default]); a flag has a default only where the generator has none,
    # and bool flags are switches. cmd_gen passes the given ones.
    for kind, generator, flags in (
        ("lasso", gen_lasso, (
            ("m", int, 200), ("n", int, 100), ("lam", float),
            ("density", float), ("noise", float), ("components", int))),
        ("qc-lasso", gen_qc_lasso, (
            ("n", int, 20), ("m", int), ("s", int, 3), ("delta", float, 0.5),
            ("lam", float), ("components", int), ("degenerate", bool))),
        ("lowrank", gen_lowrank_matrix_problem, (
            ("size", int), ("rank", int), ("lam", float),
            ("degenerate", bool))),
    ):
        p = gen_sub.add_parser(kind)
        for name, cast, *default in flags:
            if cast is bool:
                p.add_argument("--" + name, action="store_const", const=True)
            else:
                p.add_argument("--" + name, type=cast,
                               default=default[0] if default else None)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="bundle directory (default kind-seed)")
        p.set_defaults(func=cmd_gen, generator=generator, settings=[
            (name, name, cast) for name, cast, *_ in flags])

    solve = sub.add_parser("solve", help="run a solver on a bundle")
    solve.add_argument("solver", choices=sorted(SOLVERS))
    solve.add_argument("bundle")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--out", help="output directory (default: bundle dir)")
    solve.add_argument("--config", help="key=value defaults file")
    solve.set_defaults(func=cmd_solve)

    rep = sub.add_parser("replicate", help="run a canned figure experiment")
    rep.add_argument("figure", choices=_FIGURES)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--outdir", default=".")
    rep.add_argument("--config", help="key=value defaults file")
    rep.set_defaults(func=cmd_replicate)

    for owner, row in (("solve", _RUN), *_OWN.items()):
        p = rep if owner in _FIGURES else solve
        for flag, _, cast, *text in row:
            p.add_argument("--" + flag, help=text[0] if text else None,
                           type=cast if cast in (int, float) else None)

    screen = sub.add_parser(
        "screen", help="certified zero coordinates from a region"
    )
    screen.add_argument("bundle")
    screen.add_argument("--center-file", required=True,
                        help="vector file: region center")
    screen.add_argument("--radius", type=float, required=True)
    screen.add_argument("--gamma", type=float,
                        help="prox step (default 1/L, or 1 when L = 0)")
    screen.set_defaults(func=cmd_screen)
    return parser


def cmd_gen(args):
    seed = _resolve_seed(args, {})
    problem = args.generator(seed=seed, **_given(args, {}, args.settings))
    out = args.out or f"{args.kind}-{seed}"
    write_bundle(out, problem)
    print(out)
    return 0


def cmd_solve(args):
    conf = _config(args.config)
    seed = _resolve_seed(args, conf)
    config = SolverConfig(seed=seed, **_given(args, conf, _RUN))
    kwargs = _own(args, conf, args.solver)
    if args.solver == "random-subspace":
        kwargs = {"sampler": SubspaceSamplerConfig(seed=seed, **kwargs)}
    problem = read_bundle(args.bundle)
    point, trace = run_solver(args.solver, problem, config, **kwargs)
    for path in write_solve_outputs(args.out or args.bundle, problem, point,
                                    trace):
        print(path)
    return 0 if trace.converged else 2


def write_solve_outputs(outdir, problem, point, trace):
    """Write a run's trace.csv and report.txt into outdir, as ``proxident
    solve`` does; returns the two paths.

    point and trace are what a solver returns. The report's objective= is
    the last trace record's objective when that record is the returned
    point, and otherwise (trace_every skipped it, or a run diverged on its
    first step) problem.objective(point.point); the last finite iterate of a
    diverged run can overflow that, and the report then says objective=inf.
    """
    if trace and trace.k[-1] == trace.iterations:
        objective = trace.objective[-1]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            objective = problem.objective(point.point)
    os.makedirs(outdir, exist_ok=True)
    trace_path = os.path.join(outdir, "trace.csv")
    report_path = os.path.join(outdir, "report.txt")
    trace_to_csv(trace, trace_path)
    with open(report_path, "w") as fh:
        if trace:  # a run that diverges on its first step records nothing
            fh.write(report_text(analyze_trace(trace)))
        fh.write(f"converged={int(trace.converged)}\n")
        fh.write(f"status={trace.status}\n")
        fh.write(f"iterations={trace.iterations}\n")
        fh.write(f"gamma={trace.gamma!r}\n")
        fh.write(f"objective={objective!r}\n")
    return trace_path, report_path


def cmd_replicate(args):
    conf = _config(args.config)
    seed = _resolve_seed(args, conf)
    settings = _own(args, conf, args.figure)
    # looked up per run, so a replaced module attribute is the one called
    run = {"fig1": replicate_fig1, "fig2": replicate_fig2,
           "fig3": replicate_fig3}[args.figure]
    os.makedirs(args.outdir, exist_ok=True)
    result = run(seed=seed, outdir=args.outdir, **settings)
    if args.figure == "fig1":
        print(f"shared_axis={int(result['shared_axis'])}")
        print(f"ls_relative_change={result['ls_relative_change']!r}")
    elif args.figure == "fig2":
        for group, mean in result["means"].items():
            print(f"mean_final_rank[{group}]={mean!r}")
    else:
        print(f"comm_dense_at_gap={result['comm_at_gap']['dense']}")
        print(f"comm_sparse_at_gap={result['comm_at_gap']['sparse']}")
        print(f"ratio={result['ratio']!r}")
    return 0


def cmd_screen(args):
    if args.gamma is not None and not 0 < args.gamma < math.inf:
        raise ValueError(f"--gamma must be finite and > 0, got {args.gamma!r}")
    problem = read_bundle(args.bundle)
    if problem.reg.kind != "l1":
        raise ValueError("screening is defined for l1 bundles")
    center = _read_shaped(args.center_file, problem.zero_point().shape)
    gamma = args.gamma
    if gamma is None:
        lipschitz = problem.smooth.lipschitz
        gamma = 1.0 / lipschitz if lipschitz > 0 else 1.0
    if not args.radius >= 0:  # NaN fails this too
        raise ValueError(f"radius must be nonnegative, got {args.radius!r}")
    bound = enlarged_bound_l1(center, gamma * problem.reg.lam, args.radius)
    for idx in np.flatnonzero(bound.bits == 0):
        print(idx)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BundleError as exc:
        print(f"proxident: bundle error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"proxident: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
