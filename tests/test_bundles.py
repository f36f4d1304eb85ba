import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import write_matrix_reference
from proxident import cli
from proxident.bundles import (
    BundleError,
    read_bundle,
    read_matrix,
    write_bundle,
    write_matrix,
    write_vector,
)
from proxident.problems import gen_lasso, gen_lowrank_matrix_problem, gen_qc_lasso


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 3))
    path = tmp_path / "a.txt"
    write_matrix(path, a)
    assert path.read_text().splitlines()[0] == "7 3"
    assert np.array_equal(read_matrix(path), a)


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0, -3.0,
               2.0 ** 53, 1e16, 123456789.0, 0.1, 1 / 3]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(
    np.float64,
    st.one_of(st.just((1, 1)), st.tuples(st.integers(1, 8), st.just(1)),
              st.tuples(st.integers(1, 6), st.integers(1, 6))),
    elements=st.one_of(st.sampled_from(EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-10 ** 6, 10 ** 6).map(float)),
))
def test_write_matrix_matches_per_value_writer(tmp_path_factory, arr):
    d = tmp_path_factory.mktemp("w")
    write_matrix(d / "new.txt", arr)
    write_matrix_reference(d / "old.txt", arr)
    assert (d / "new.txt").read_bytes() == (d / "old.txt").read_bytes()
    assert np.array_equal(read_matrix(d / "new.txt"), arr)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.25, 1e-17])
    path = tmp_path / "v.txt"
    write_vector(path, v)
    assert np.array_equal(read_matrix(path), v[:, None])


def test_header_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2 3\n4 5 6\n")
    with pytest.raises(BundleError):
        read_matrix(path)


def test_lasso_bundle_roundtrip(tmp_path):
    p = gen_lasso(20, 8, seed=3, components=4)
    write_bundle(tmp_path / "b", p)
    q = read_bundle(tmp_path / "b")
    assert np.array_equal(q.smooth.A, p.smooth.A)
    assert np.array_equal(q.smooth.b, p.smooth.b)
    assert q.reg.lam == p.reg.lam
    assert len(q.smooth.components) == 4
    assert q.seed == 3


def test_qc_bundle_keeps_ground_truth(tmp_path):
    p = gen_qc_lasso(n=10, s=3, delta=0.5, seed=4)
    write_bundle(tmp_path / "b", p)
    q = read_bundle(tmp_path / "b")
    assert np.array_equal(q.xstar, p.xstar)
    assert np.array_equal(q.ustar, p.ustar)
    assert q.cert_gamma == p.cert_gamma
    assert q.delta == p.delta


def test_lowrank_bundle_roundtrip(tmp_path):
    p = gen_lowrank_matrix_problem(seed=5, degenerate=True)
    write_bundle(tmp_path / "b", p)
    q = read_bundle(tmp_path / "b")
    assert np.array_equal(q.smooth.target, p.smooth.target)
    assert np.array_equal(q.xstar, p.xstar)
    assert q.meta["degenerate"] is True
    assert q.meta["expected_rank"] == p.meta["expected_rank"]


def test_missing_meta(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(BundleError):
        read_bundle(tmp_path / "empty")


def test_bad_meta_line(tmp_path):
    d = tmp_path / "b"
    d.mkdir()
    (d / "meta").write_text("kind lasso\n")
    with pytest.raises(BundleError):
        read_bundle(d)


def _replace_entry(path, value):
    lines = path.read_text().splitlines()
    fields = lines[2].split()
    fields[0] = value
    lines[2] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", ["A.txt", "b.txt", "xstar.txt", "ustar.txt"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_entry_rejected(tmp_path, name, value):
    write_bundle(tmp_path / "b", gen_qc_lasso(n=6, s=2, delta=0.5, seed=1))
    _replace_entry(tmp_path / "b" / name, value)
    with pytest.raises(BundleError, match=rf"{name}: non-finite entry .* "
                                          r"data row 2, column 1"):
        read_bundle(tmp_path / "b")


def test_non_finite_lowrank_target_rejected(tmp_path):
    write_bundle(tmp_path / "b", gen_lowrank_matrix_problem(size=4, rank=2))
    _replace_entry(tmp_path / "b" / "A.txt", "nan")
    with pytest.raises(BundleError, match="A.txt: non-finite entry nan"):
        read_bundle(tmp_path / "b")


@pytest.mark.parametrize("value", ["ten", "2.5", "0", "-1", "21"])
def test_bad_component_count_rejected(tmp_path, value):
    write_bundle(tmp_path / "b", gen_lasso(20, 8, seed=3, components=4))
    meta = tmp_path / "b" / "meta"
    meta.write_text(meta.read_text().replace("components=4",
                                             f"components={value}"))
    with pytest.raises(BundleError, match=rf"meta: components='{value}' "
                                          r"is not an integer in 1\.\.20"):
        read_bundle(tmp_path / "b")


@pytest.mark.parametrize("kind,key,value,expected", [
    ("qc", "seed", "abc", "a nonnegative integer"),
    ("qc", "seed", "-3", "a nonnegative integer"),
    ("qc", "lambda", "0", "a finite positive number"),
    ("qc", "lambda", "-1", "a finite positive number"),
    ("qc", "lambda", "inf", "a finite positive number"),
    ("qc", "lambda", "nan", "a finite positive number"),
    ("qc", "lambda", "one", "a finite positive number"),
    ("qc", "gamma", "x", "a finite positive number"),
    ("qc", "delta", "inf", "a finite positive number"),
    ("qc", "degenerate", "2", "0 or 1"),
    ("lowrank", "rank", "abc", "a nonnegative integer"),
    ("lowrank", "expected-rank", "4.5", "a nonnegative integer"),
    ("lowrank", "degenerate", "yes", "0 or 1"),
])
def test_bad_meta_value_rejected(tmp_path, kind, key, value, expected):
    problem = (gen_qc_lasso(n=6, s=2, delta=0.5, seed=1) if kind == "qc"
               else gen_lowrank_matrix_problem(size=4, rank=2))
    write_bundle(tmp_path / "b", problem)
    meta = tmp_path / "b" / "meta"
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in meta.read_text().splitlines()]
    assert f"{key}={value}" in lines
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(BundleError, match=rf"meta: {key}='{value}' is not "
                                          f"{expected}"):
        read_bundle(tmp_path / "b")


@pytest.mark.parametrize("meta,kind", [("kind=foo\n", "'foo'"),
                                       ("lambda=1\nseed=2\n", "None"),
                                       ("kind=Lasso\nlambda=-1\n", "'Lasso'")])
def test_unknown_kind_is_checked_first(tmp_path, meta, kind):
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "meta").write_text(meta)
    with pytest.raises(BundleError, match=f"unknown bundle kind {kind}$"):
        read_bundle(tmp_path / "b")


def test_unknown_kind_is_not_written(tmp_path):
    problem = gen_lasso(20, 8, seed=3)
    problem.meta["kind"] = "foo"
    with pytest.raises(BundleError, match="cannot serialize problem kind 'foo'"):
        write_bundle(tmp_path / "b", problem)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("problem", [
    gen_lasso(20, 8, seed=3),
    gen_qc_lasso(n=6, s=2, delta=0.5, seed=1),
    gen_qc_lasso(n=6, s=2, delta=0.5, seed=1, degenerate=True),
    gen_lowrank_matrix_problem(6, 2, seed=1),
    gen_lowrank_matrix_problem(6, 2, degenerate=True, seed=1),
], ids=["lasso", "qc-lasso", "qc-lasso-degenerate", "lowrank",
        "lowrank-degenerate"])
def test_generator_meta_roundtrips_in_file_order(tmp_path, problem):
    write_bundle(tmp_path / "b", problem)
    read = read_bundle(tmp_path / "b")
    assert list(read.meta.items()) == list(problem.meta.items())
    assert [type(v) for v in read.meta.values()] == [
        type(v) for v in problem.meta.values()]


def test_missing_lambda_rejected(tmp_path):
    write_bundle(tmp_path / "b", gen_lasso(20, 8, seed=3))
    meta = tmp_path / "b" / "meta"
    meta.write_text("".join(line for line in meta.read_text().splitlines(True)
                            if not line.startswith("lambda=")))
    with pytest.raises(BundleError, match="meta: missing lambda"):
        read_bundle(tmp_path / "b")


def _qc_bundle(tmp_path):
    write_bundle(tmp_path / "b", gen_qc_lasso(n=6, s=2, delta=0.5, seed=1))
    return tmp_path / "b"


def _lowrank_bundle(tmp_path):
    write_bundle(tmp_path / "b", gen_lowrank_matrix_problem(size=4, rank=2))
    return tmp_path / "b"


def _lasso_bundle_with_truth(tmp_path):
    # gen_lasso plants no ground truth: attach an xstar file by hand
    write_bundle(tmp_path / "b", gen_lasso(20, 8, seed=3))
    write_vector(tmp_path / "b" / "xstar.txt", np.ones(8))
    with open(tmp_path / "b" / "meta", "a") as fh:
        fh.write("xstar-file=xstar.txt\n")
    read_bundle(tmp_path / "b")
    return tmp_path / "b"


def _reshape_file(path, edit):
    write_matrix(path, edit(read_matrix(path)))


@pytest.mark.parametrize("make,name,edit,expected,found", [
    (_qc_bundle, "b.txt", lambda m: m[:-1], "12x1", "11x1"),
    (_qc_bundle, "b.txt", lambda m: np.hstack([m, m]), "12x1", "12x2"),
    (_qc_bundle, "xstar.txt", lambda m: m[:-2], "6x1", "4x1"),
    (_qc_bundle, "xstar.txt", lambda m: np.vstack([m, m]), "6x1", "12x1"),
    (_qc_bundle, "ustar.txt", lambda m: np.hstack([m, m]), "6x1", "6x2"),
    (_qc_bundle, "ustar.txt", lambda m: m.T, "6x1", "1x6"),
    (_lasso_bundle_with_truth, "b.txt", lambda m: m[:-3], "20x1", "17x1"),
    (_lasso_bundle_with_truth, "xstar.txt", lambda m: m[:-1], "8x1", "7x1"),
    (_lowrank_bundle, "xstar.txt", lambda m: m[:, :-1], "4x4", "4x3"),
    (_lowrank_bundle, "ustar.txt", lambda m: m[:-1], "4x4", "3x4"),
])
def test_shape_mismatch_rejected(tmp_path, make, name, edit, expected, found):
    bundle = make(tmp_path)
    _reshape_file(bundle / name, edit)
    with pytest.raises(BundleError,
                       match=rf"{name}: expected {expected}, found {found}"):
        read_bundle(bundle)


def test_truncated_ground_truth_fails_the_cli(tmp_path, capsys):
    bundle = _qc_bundle(tmp_path)
    _reshape_file(bundle / "xstar.txt", lambda m: m[:-2])
    code = cli.main(["solve", "pg", str(bundle), "--out",
                     str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("proxident: bundle error: ")
    assert "xstar.txt: expected 6x1, found 4x1" in err


@pytest.mark.parametrize("text,message", [
    ("2 3\n1 2 3\n4 5 x\n", "data row 2: could not convert string to float: 'x'"),
    # Python's float takes these; np.loadtxt, which reads the file, does not
    ("2 2\n1 2\n1_0 2\n", "data row 2: could not convert string to float: '1_0'"),
    ("2 2\n1 2\n\u0661 2\n",
     "data row 2: could not convert string to float: '\u0661'"),
    # a blank line is not a data row
    ("2 3\n1 2 3\n\n4 5\n", "data row 2 has 2 entries, not 3"),
    ("2 3\n1 2\n4 5 6\n", "data row 1 has 2 entries, not 3"),
    ("2 3\n1 2 3\n4 5 6 7\n", "data row 2 has 4 entries, not 3"),
    ("2.5 3\n1 2 3\n", "header '2.5 3' is not 'rows cols'"),
    ("two 3\n1 2 3\n", "header 'two 3' is not 'rows cols'"),
    ("2 3 1\n1 2 3\n", "header '2 3 1' is not 'rows cols'"),
], ids=["word-entry", "underscore-entry", "non-ascii-digit", "short-row",
        "short-first-row", "long-row", "float-header", "word-header",
        "three-field-header"])
def test_malformed_matrix_file_names_file_and_row(tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(BundleError, match=f"^{re.escape(str(path))}: "
                                          f"{re.escape(message)}$"):
        read_matrix(path)


def test_non_numeric_entry_fails_the_cli(tmp_path, capsys):
    bundle = _qc_bundle(tmp_path)
    _replace_entry(bundle / "A.txt", "x")
    assert cli.main(["solve", "pg", str(bundle), "--out",
                     str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"proxident: bundle error: {bundle / 'A.txt'}: data row 2: could "
        "not convert string to float: 'x'\n")


def test_repeated_meta_key_is_refused(tmp_path):
    bundle = _qc_bundle(tmp_path)
    meta = bundle / "meta"
    lines = meta.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith("lambda="))
    meta.write_text("\n".join(lines) + "\n\nlambda=2\n")
    with pytest.raises(BundleError, match=(
            f"^{re.escape(str(meta))}: line {len(lines) + 2}: key 'lambda' "
            f"repeats line {number}$")):
        read_bundle(bundle)


def test_repeated_config_key_fails_the_cli(tmp_path, capsys):
    bundle = _qc_bundle(tmp_path)
    conf = tmp_path / "conf"
    conf.write_text("max-iter=4\n# a comment\n max-iter = 5\n")
    assert cli.main(["solve", "pg", str(bundle), "--config", str(conf),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"proxident: bundle error: {conf}: line 3: key 'max-iter' repeats "
        f"line 1\n")
    assert not (tmp_path / "out").exists()
