import os
import subprocess
import sys

import numpy as np
import pytest

import proxident
from proxident.asynchronous import DelayModel
from proxident.bundles import read_bundle, write_matrix, write_vector
from proxident.cli import main, write_solve_outputs
from proxident.prox import prox_l1
from proxident.registry import SOLVERS, run_solver
from proxident.solvers import SolverConfig


@pytest.fixture
def qc_bundle(tmp_path):
    path = tmp_path / "qc"
    assert main(["gen", "qc-lasso", "--n", "10", "--s", "3", "--delta", "0.5",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


def test_gen_prints_path_and_writes_bundle(tmp_path, capsys):
    out = tmp_path / "lasso-bundle"
    code = main(["gen", "lasso", "--m", "30", "--n", "12", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    problem = read_bundle(out)
    assert problem.smooth.A.shape == (30, 12)


@pytest.mark.parametrize("args,field", [
    (["lasso", "--m", "0"], "m=0"),
    (["lasso", "--n", "0"], "n=0"),
    (["lasso", "--density", "2"], "density"),
    (["lasso", "--density", "-1"], "density"),
    (["lasso", "--noise", "nan"], "noise"),
    (["lowrank", "--rank", "-1"], "rank"),
    (["lowrank", "--size", "0", "--rank", "0"], "size=0"),
    (["lowrank", "--size", "-2"], "size=-2"),
    (["lasso", "--components", "0"], "components=0"),
    (["qc-lasso", "--components", "0"], "components=0"),
    (["qc-lasso", "--n", "0"], "n=0"),
])
def test_gen_bad_argument_exits_1_naming_it(tmp_path, capsys, args, field):
    out = tmp_path / "bundle"
    assert main(["gen", *args, "--out", str(out)]) == 1
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_gen_qc_records_support(qc_bundle):
    problem = read_bundle(qc_bundle)
    assert np.count_nonzero(problem.xstar) == 3
    assert problem.delta == 0.5


def test_solve_writes_trace_and_report(qc_bundle, capsys):
    code = main(["solve", "pg", str(qc_bundle)])
    assert code == 0
    trace = (qc_bundle / "trace.csv").read_text()
    assert trace.splitlines()[0] == (
        "k,objective,nnz,pattern_hash,u_step,comm_coords,wallclock_s"
    )
    report = (qc_bundle / "report.txt").read_text()
    assert "first_stable_iter=" in report and "converged=1" in report


def test_solve_report_hash_matches_optimal_pattern(qc_bundle):
    problem = read_bundle(qc_bundle)
    main(["solve", "pg", str(qc_bundle), "--stop-tol", "1e-12"])
    report = dict(
        line.split("=", 1)
        for line in (qc_bundle / "report.txt").read_text().splitlines()
    )
    star = prox_l1(problem.ustar, problem.cert_gamma, problem.reg.lam)
    assert report["pattern_hash"] == star.pattern.packed_hex()


def test_solve_gamma_out_of_range_exits_1(qc_bundle, capsys):
    assert main(["solve", "pg", str(qc_bundle), "--gamma", "1e9"]) == 1
    assert "gamma" in capsys.readouterr().err


def test_solve_nonconvergence_exits_2(qc_bundle):
    assert main(["solve", "pg", str(qc_bundle), "--max-iter", "3",
                 "--stop-tol", "1e-15"]) == 2


@pytest.mark.parametrize("flag,value,field", [
    ("--stop-tol", "nan", "stop_tol"), ("--stop-tol", "inf", "stop_tol"),
    ("--stop-tol", "-1e-9", "stop_tol"), ("--max-iter", "0", "max_iter"),
    ("--trace-every", "0", "trace_every"),
])
def test_solve_bad_setting_exits_1_naming_it(qc_bundle, capsys, flag, value,
                                             field):
    assert main(["solve", "pg", str(qc_bundle), f"{flag}={value}"]) == 1
    assert field in capsys.readouterr().err
    assert not (qc_bundle / "trace.csv").exists()


@pytest.mark.parametrize("line,field", [("max-iter=300.0", "max-iter"),
                                        ("trace-every=2.5", "trace-every"),
                                        ("stop-tol=nan", "stop_tol")])
def test_config_file_bad_setting_exits_1_naming_it(qc_bundle, tmp_path,
                                                   capsys, line, field):
    conf = tmp_path / "conf"
    conf.write_text(line + "\n")
    assert main(["solve", "pg", str(qc_bundle), "--config", str(conf)]) == 1
    assert field in capsys.readouterr().err


def test_solve_missing_bundle_exits_1(tmp_path, capsys):
    assert main(["solve", "pg", str(tmp_path / "nope")]) == 1


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "unknown-solver", "x"])
    assert exc.value.code == 1
    # dave-pg runs one worker per component and takes no worker count
    with pytest.raises(SystemExit) as exc:
        main(["solve", "dave-pg", "x", "--workers", "10"])
    assert exc.value.code == 1


def test_dave_pg_populates_comm(qc_bundle):
    out = qc_bundle.parent / "dave-out"
    code = main(["solve", "dave-pg", str(qc_bundle),
                 "--delay", "uniform:0:5", "--out", str(out)])
    assert code == 0
    rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
    comms = [int(r.split(",")[5]) for r in rows]
    assert comms[0] > 0 and comms == sorted(comms)


def test_config_file_with_flag_override(qc_bundle, tmp_path):
    conf = tmp_path / "conf"
    conf.write_text("max-iter=4\nstop-tol=1e-15\n")
    # config forbids convergence in 4 iterations
    assert main(["solve", "pg", str(qc_bundle), "--config", str(conf)]) == 2
    # flag overrides the config file
    assert main(["solve", "pg", str(qc_bundle), "--config", str(conf),
                 "--max-iter", "100000", "--stop-tol", "1e-8"]) == 0


def test_unset_settings_are_left_to_the_library(qc_bundle, tmp_path,
                                                monkeypatch):
    import proxident.cli as cli
    from proxident.exploit import SubspaceSamplerConfig

    calls = []

    def spy(*args, **kwargs):
        calls.append((args[2], kwargs))
        return run_solver(*args, **kwargs)

    monkeypatch.setattr(cli, "run_solver", spy)
    assert main(["solve", "random-subspace", str(qc_bundle), "--seed", "4",
                 "--out", str(tmp_path / "rs")]) == 0
    assert calls == [(SolverConfig(seed=4),
                      {"sampler": SubspaceSamplerConfig(seed=4)})]
    # one defaults file for every solver: each takes only its own row
    conf = tmp_path / "conf"
    conf.write_text("stop-tol=1e-9\nkeep-prob=0.75\nencoding=sparse\n")
    assert main(["solve", "random-subspace", str(qc_bundle), "--seed", "4",
                 "--config", str(conf), "--out", str(tmp_path / "rs")]) == 0
    assert main(["solve", "random-subspace", str(qc_bundle), "--seed", "4",
                 "--config", str(conf), "--keep-prob", "0.25",
                 "--out", str(tmp_path / "rs")]) == 0
    assert calls[1:] == [
        (SolverConfig(seed=4, stop_tol=1e-9),
         {"sampler": SubspaceSamplerConfig(0.75, seed=4)}),
        (SolverConfig(seed=4, stop_tol=1e-9),
         {"sampler": SubspaceSamplerConfig(0.25, seed=4)})]
    del calls[:]
    for argv in (["dave-pg"], ["dave-pg", "--delay", "uniform:0:2"],
                 ["predictor-corrector"], ["pg", "--config", str(conf)]):
        assert main(["solve", argv[0], str(qc_bundle), *argv[1:],
                     "--out", str(tmp_path / "out")]) in (0, 2)
    assert calls == [
        (SolverConfig(), {}),
        (SolverConfig(), {"delay_model": DelayModel.uniform(0, 2)}),
        (SolverConfig(), {}), (SolverConfig(stop_tol=1e-9), {})]
    main(["solve", "dave-pg", str(qc_bundle), "--config", str(conf),
          "--out", str(tmp_path / "out")])
    main(["solve", "predictor-corrector", str(qc_bundle), "--config",
          str(conf), "--out", str(tmp_path / "out")])
    assert calls[4:] == [(SolverConfig(stop_tol=1e-9), {"encoding": "sparse"}),
                         (SolverConfig(stop_tol=1e-9), {})]

    fig2 = []
    monkeypatch.delenv("PROXIDENT_SEED", raising=False)
    monkeypatch.setattr(cli, "replicate_fig2", lambda **kwargs: (
        fig2.append(kwargs) or {"means": {}}))
    assert main(["replicate", "fig2", "--outdir", str(tmp_path)]) == 0
    assert main(["replicate", "fig2", "--outdir", str(tmp_path),
                 "--instances", "3"]) == 0
    assert fig2 == [{"seed": 0, "outdir": str(tmp_path)},
                    {"seed": 0, "outdir": str(tmp_path), "instances": 3}]


def test_gen_passes_the_generator_only_the_given_flags(tmp_path,
                                                       monkeypatch):
    import proxident.cli as cli

    calls = []
    for name in ("gen_lasso", "gen_qc_lasso", "gen_lowrank_matrix_problem"):
        def spy(generate=getattr(cli, name), **kwargs):
            calls.append(kwargs)
            return generate(**kwargs)
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.delenv("PROXIDENT_SEED", raising=False)
    for number, argv in enumerate((
            ["lasso"], ["qc-lasso"], ["lowrank"],
            ["lasso", "--m", "30", "--noise", "0", "--components", "3"],
            ["qc-lasso", "--m", "50", "--lam", "2", "--degenerate"],
            ["lowrank", "--rank", "2", "--degenerate", "--seed", "3"])):
        assert main(["gen", *argv, "--out", str(tmp_path / str(number))]) == 0
    # a flag has a default only where the generator has none
    assert calls == [
        {"seed": 0, "m": 200, "n": 100},
        {"seed": 0, "n": 20, "s": 3, "delta": 0.5},
        {"seed": 0},
        {"seed": 0, "m": 30, "n": 100, "noise": 0.0, "components": 3},
        {"seed": 0, "n": 20, "m": 50, "s": 3, "delta": 0.5, "lam": 2.0,
         "degenerate": True},
        {"seed": 3, "rank": 2, "degenerate": True},
    ]


OWN_FLAGS = {"dave-pg": [("--delay", "constant:1"), ("--encoding", "sparse")],
             "random-subspace": [("--keep-prob", "0.25")]}
# the flags of predictor-corrector's flat-step cadence and random subspace's
# refresh wait, which are constants now: no solver takes them
CONSTANT_FLAGS = [("--full-step-every", "3"), ("--refresh-wait", "3")]


@pytest.mark.parametrize("solver,flag,value", [
    (solver, flag, value) for solver in sorted(SOLVERS)
    for owner, flags in (*OWN_FLAGS.items(), (None, CONSTANT_FLAGS))
    if owner != solver for flag, value in flags])
def test_another_solvers_flag_exits_1_naming_it(qc_bundle, capsys, solver,
                                                flag, value):
    # a flag the solver does not take: another solver's is refused by
    # name, one that no solver takes is an argparse usage error
    argv = ["solve", solver, str(qc_bundle), flag, value]
    if (flag, value) in CONSTANT_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert (f"unrecognized arguments: {flag} {value}"
                in capsys.readouterr().err)
    else:
        assert main(argv) == 1
        owner = next(o for o, flags in OWN_FLAGS.items()
                     if (flag, value) in flags)
        assert (f"{flag} is a setting of {owner}, not of {solver}"
                in capsys.readouterr().err)
    assert not (qc_bundle / "trace.csv").exists()
    assert not (qc_bundle / "report.txt").exists()


@pytest.mark.parametrize("figure", ["fig1", "fig3"])
def test_another_figures_flag_exits_1_naming_it(tmp_path, capsys, figure):
    out = tmp_path / "figures"
    assert main(["replicate", figure, "--instances", "3", "--outdir",
                 str(out)]) == 1
    assert (f"--instances is a setting of fig2, not of {figure}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_another_solvers_flag_is_refused_before_the_bundle_is_read(
        tmp_path, capsys):
    assert main(["solve", "pg", str(tmp_path / "nope"), "--keep-prob",
                 "0.5"]) == 1
    assert "--keep-prob is a setting of random-subspace" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_encoding_exits_1_naming_it(qc_bundle, tmp_path, capsys, source):
    conf = tmp_path / "conf"
    conf.write_text("encoding=Sparse\n")
    extra = (["--encoding", "Sparse"] if source == "flag"
             else ["--config", str(conf)])
    assert main(["solve", "dave-pg", str(qc_bundle), *extra]) == 1
    assert ("encoding must be 'dense' or 'sparse', got 'Sparse'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [["solve", "pg", "BUNDLE"],
                                     ["replicate", "fig1"]])
@pytest.mark.parametrize("line", ["stop_tol=1e-3", "max_iters=5",
                                  "full-step-every=5", "refresh-wait=10"])
def test_unknown_config_key_exits_1_naming_file_and_key(
        qc_bundle, tmp_path, capsys, command, line):
    conf = tmp_path / "conf"
    conf.write_text("max-iter=4\n" + line + "\n")
    argv = [str(qc_bundle) if a == "BUNDLE" else a for a in command]
    assert main(argv + ["--config", str(conf), "--outdir" if
                        command[0] == "replicate" else "--out",
                        str(tmp_path / "out")]) == 1
    key = line.split("=")[0]
    assert f"{conf}: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,env,message", [
    (["solve", "saga", "BUNDLE", "--seed", "-1"], None,
     "seed must be >= 0, got seed=-1"),
    (["gen", "lasso", "--seed", "-3"], None, "seed must be >= 0, got seed=-3"),
    (["gen", "lasso"], "-2",
     "PROXIDENT_SEED='-2': seed must be >= 0, got seed=-2"),
    (["gen", "lasso"], "x1", "PROXIDENT_SEED='x1': invalid literal"),
    (["solve", "pg", "BUNDLE", "--config", "CONF"], None,
     "config seed='-4': seed must be >= 0, got seed=-4"),
    (["replicate", "fig1", "--config", "CONF"], None,
     "config seed='-4': seed must be >= 0, got seed=-4"),
], ids=["solve-flag", "gen-flag", "env", "env-not-an-integer", "solve-config",
        "replicate-config"])
def test_negative_seed_exits_1_naming_its_source(qc_bundle, tmp_path,
                                                 monkeypatch, capsys, argv,
                                                 env, message):
    conf = tmp_path / "conf"
    conf.write_text("seed=-4\n")
    if env is None:
        monkeypatch.delenv("PROXIDENT_SEED", raising=False)
    else:
        monkeypatch.setenv("PROXIDENT_SEED", env)
    monkeypatch.chdir(tmp_path)
    paths = {"BUNDLE": str(qc_bundle), "CONF": str(conf)}
    assert main([paths.get(a, a) for a in argv]) == 1
    assert message in capsys.readouterr().err
    assert not (qc_bundle / "trace.csv").exists()
    assert sorted(os.listdir(tmp_path)) == ["conf", "qc"]


@pytest.mark.parametrize("command", [["solve", "pg", "BUNDLE"],
                                     ["replicate", "fig1"]])
def test_malformed_config_line_exits_1(qc_bundle, tmp_path, capsys, command):
    conf = tmp_path / "conf"
    conf.write_text("# defaults\nmax-iter=4\nstop-tol 1e-15\n")
    argv = [str(qc_bundle) if a == "BUNDLE" else a for a in command]
    assert main(argv + ["--config", str(conf)]) == 1
    err = capsys.readouterr().err
    assert f"{conf}: line 3: expected key=value, got 'stop-tol 1e-15'" in err


def test_env_seed_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROXIDENT_SEED", "77")
    out = tmp_path / "via-env"
    main(["gen", "lasso", "--m", "20", "--n", "8", "--out", str(out)])
    problem = read_bundle(out)
    assert problem.seed == 77


def test_screen_command(qc_bundle, tmp_path, capsys):
    problem = read_bundle(qc_bundle)
    center = tmp_path / "center.txt"
    write_vector(center, problem.ustar)
    rho = 0.25 * problem.delta * problem.cert_gamma * problem.reg.lam
    code = main(["screen", str(qc_bundle), "--center-file", str(center),
                 "--radius", repr(rho)])
    assert code == 0
    screened = [int(line) for line in capsys.readouterr().out.split()]
    assert screened  # the qc margin guarantees screenable coordinates
    for i in screened:
        assert problem.xstar[i] == 0.0


def test_zero_design_takes_the_unit_step(tmp_path, capsys):
    # a design of zeros has L = 0: solve and screen default to gamma = 1
    path = tmp_path / "zero"
    assert main(["gen", "lasso", "--m", "6", "--n", "4", "--out",
                 str(path)]) == 0
    write_matrix(path / "A.txt", np.zeros((6, 4)))
    assert main(["solve", "pg", str(path)]) == 0
    report = (path / "report.txt").read_text()
    assert "converged=1\n" in report and "gamma=1.0\n" in report
    lam = read_bundle(path).reg.lam
    center = tmp_path / "center.txt"
    write_vector(center, lam * np.array([0.5, -2.0, 0.0, 0.95]))
    capsys.readouterr()
    assert main(["screen", str(path), "--center-file", str(center),
                 "--radius", repr(0.1 * lam)]) == 0
    assert capsys.readouterr().out.split() == ["0", "2"]


@pytest.mark.parametrize("center_size,flags,error", [
    (4, [], "bundle error: {center}: expected 10x1, found 4x1"),
    (10, ["--gamma", "0"], "error: --gamma must be finite and > 0, got 0.0"),
    (10, ["--gamma", "-1"], "error: --gamma must be finite and > 0, got -1.0"),
    (10, ["--gamma", "inf"], "error: --gamma must be finite and > 0, got inf"),
    (10, ["--gamma", "nan"], "error: --gamma must be finite and > 0, got nan"),
    (10, ["--radius", "-0.1"], "error: radius must be nonnegative, got -0.1"),
    (10, ["--radius", "nan"], "error: radius must be nonnegative, got nan"),
], ids=["short-center", "gamma-0", "gamma-negative", "gamma-inf", "gamma-nan",
        "radius-negative", "radius-nan"])
def test_screen_rejects_bad_input(qc_bundle, tmp_path, capsys, center_size,
                                  flags, error):
    center = tmp_path / "center.txt"
    write_vector(center, np.zeros(center_size))
    code = main(["screen", str(qc_bundle), "--center-file", str(center),
                 "--radius", "0.01"] + flags)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "proxident: " + error.format(center=center) in captured.err


def test_replicate_fig1(tmp_path, capsys):
    code = main(["replicate", "fig1", "--seed", "5", "--outdir",
                 str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "shared_axis=1" in out
    assert (tmp_path / "fig1_solutions.csv").exists()


def test_replicate_fig2_small(tmp_path, capsys):
    code = main(["replicate", "fig2", "--seed", "5", "--instances", "3",
                 "--outdir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fig2_trajectories.csv").exists()
    means = (tmp_path / "fig2_group_means.csv").read_text().splitlines()
    assert means[0] == "group,mean_final_rank"


@pytest.mark.parametrize("count", ["0", "-2"])
def test_replicate_fig2_needs_an_instance(tmp_path, capsys, count):
    assert main(["replicate", "fig2", "--instances", count, "--outdir",
                 str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert f"instances must be >= 1, got instances={count}" in captured.err


def test_replicate_byte_identical(tmp_path):
    for d in ("a", "b"):
        assert main(["replicate", "fig1", "--seed", "9", "--outdir",
                     str(tmp_path / d)]) == 0
    a = (tmp_path / "a" / "fig1_solutions.csv").read_bytes()
    b = (tmp_path / "b" / "fig1_solutions.csv").read_bytes()
    assert a == b


def test_csv_row_count_matches_trace_every(qc_bundle):
    main(["solve", "pg", str(qc_bundle), "--max-iter", "10", "--stop-tol",
          "1e-15", "--trace-every", "4"])
    rows = (qc_bundle / "trace.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 3  # ceil(10/4)


def _report(path):
    return dict(line.split("=", 1)
                for line in (path / "report.txt").read_text().splitlines())


def test_report_objective_is_the_last_trace_cell(tmp_path):
    path = tmp_path / "lowrank"
    assert main(["gen", "lowrank", "--size", "15", "--rank", "3", "--seed",
                 "4", "--out", str(path)]) == 0
    main(["solve", "dr", str(path)])
    last = (path / "trace.csv").read_text().splitlines()[-1].split(",")
    assert _report(path)["objective"] == last[1]


def test_report_objective_of_an_untraced_last_iterate(qc_bundle):
    main(["solve", "pg", str(qc_bundle), "--max-iter", "10", "--stop-tol",
          "1e-15", "--trace-every", "4"])
    problem = read_bundle(qc_bundle)
    point, trace = run_solver("pg", problem, SolverConfig(
        max_iter=10, stop_tol=1e-15, trace_every=4))
    assert trace[-1].k == 9 and trace.iterations == 10
    assert _report(qc_bundle)["objective"] == repr(
        problem.objective(point.point))


def test_report_states_status(qc_bundle):
    assert main(["solve", "pg", str(qc_bundle)]) == 0
    assert "status=converged\n" in (qc_bundle / "report.txt").read_text()
    assert main(["solve", "pg", str(qc_bundle), "--max-iter", "2"]) == 2
    assert "status=max_iter\n" in (qc_bundle / "report.txt").read_text()


def test_diverging_run_exits_2_with_status(tmp_path):
    path = tmp_path / "qc"
    assert main(["gen", "qc-lasso", "--n", "20", "--s", "5", "--delta", "0.5",
                 "--seed", "7008", "--out", str(path)]) == 0
    # a fresh interpreter, so that numpy warnings reach stderr as they would
    # for a user instead of pytest's warning capture
    src = os.path.dirname(os.path.dirname(proxident.__file__))
    pythonpath = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    done = subprocess.run(
        [sys.executable, "-m", "proxident.cli", "solve", "dave-pg", str(path),
         "--delay", "uniform:0:3", "--stop-tol", "1e-9", "--seed", "7008"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2
    assert "RuntimeWarning" not in done.stderr
    report = (path / "report.txt").read_text()
    assert "converged=0\n" in report and "status=diverged\n" in report
    assert len((path / "trace.csv").read_text().splitlines()) > 1


def test_clock_overflow_exits_2_with_finite_trace(qc_bundle):
    out = qc_bundle.parent / "dave-out"
    assert main(["solve", "dave-pg", str(qc_bundle), "--delay",
                 "constant:1e308", "--max-iter", "50", "--out", str(out)]) == 2
    assert "status=diverged\n" in (out / "report.txt").read_text()
    trace = (out / "trace.csv").read_text()
    assert "inf" not in trace and len(trace.splitlines()) > 1


def test_non_finite_design_is_a_bundle_error(qc_bundle, capsys):
    a = qc_bundle / "A.txt"
    lines = a.read_text().splitlines()
    lines[1] = "nan " + lines[1].split(" ", 1)[1]
    a.write_text("\n".join(lines) + "\n")
    assert main(["solve", "pg", str(qc_bundle)]) == 1
    err = capsys.readouterr().err
    assert "bundle error" in err and "A.txt: non-finite entry nan" in err


def test_write_solve_outputs_writes_what_solve_writes(qc_bundle, tmp_path,
                                                      capsys):
    assert main(["solve", "saga", str(qc_bundle), "--seed", "5"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == [str(qc_bundle / "trace.csv"),
                       str(qc_bundle / "report.txt")]
    problem = read_bundle(qc_bundle)
    point, trace = run_solver("saga", problem, SolverConfig(seed=5))
    out = tmp_path / "direct"
    paths = write_solve_outputs(str(out), problem, point, trace)
    assert paths == (str(out / "trace.csv"), str(out / "report.txt"))
    for name in ("trace.csv", "report.txt"):
        assert (out / name).read_bytes() == (qc_bundle / name).read_bytes()
    assert "status=converged\n" in (out / "report.txt").read_text()
