import itertools
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tensorpca import admm, cli, tensors
from tensorpca import (read_tensor, write_tensor, TensorFileError,
                       ExperimentSpec, run_experiment, main, CSV_COLUMNS,
                       random_gaussian, random_partial_symmetric,
                       SuperSymmetricTensor, SolverConfig, solve_biquadratic,
                       solve_leading_pc, partial_symmetrize)


def write_text(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


HEADER = "tensorfile 1\nkind super_symmetric\ndims 2 2 2 2\n"


def test_round_trip_super_symmetric(tmp_path):
    F = random_gaussian(3, 4, 0)
    path = tmp_path / "t.tensor"
    write_tensor(path, F)
    loaded = read_tensor(path)
    assert loaded.kind == "super_symmetric"
    assert loaded.dims == (3, 3, 3, 3)
    assert isinstance(loaded.data, SuperSymmetricTensor)
    for key, value in F.items():
        assert loaded.data[key] == value


def test_round_trip_general_and_partial(tmp_path):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((2, 3, 2))
    A[0, 0, 0] = 0.0
    path = tmp_path / "g.tensor"
    write_tensor(path, A)
    loaded = read_tensor(path)
    assert loaded.kind == "general"
    np.testing.assert_array_equal(loaded.data, A)

    G = random_partial_symmetric(2, 3, 2)
    path = tmp_path / "p.tensor"
    write_tensor(path, G, "partial_symmetric")
    loaded = read_tensor(path)
    assert loaded.kind == "partial_symmetric"
    np.testing.assert_array_equal(loaded.data, G)


any_finite = st.floats(allow_nan=False, allow_infinity=False)
# partial_symmetrize adds two entries before halving: keep the sums finite
half_finite = st.floats(-8e307, 8e307)


@st.composite
def file_case(draw):
    kind = draw(st.sampled_from(("super_symmetric", "general",
                                 "partial_symmetric")))
    if kind == "super_symmetric":
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        keys = list(itertools.combinations_with_replacement(range(n), m))
        values = draw(st.lists(any_finite, min_size=len(keys),
                               max_size=len(keys)))
        return kind, SuperSymmetricTensor(n, m, dict(zip(keys, values)))
    if kind == "general":
        shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
        return kind, draw(arrays(float, shape, elements=any_finite))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    t = draw(arrays(float, (n, m, n, m), elements=half_finite))
    return kind, partial_symmetrize(t)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(file_case())
def test_round_trip_property(tmp_path_factory, case):
    kind, data = case
    path = tmp_path_factory.mktemp("rt") / "t.tensor"
    write_tensor(path, data, kind)
    loaded = read_tensor(path)
    assert loaded.kind == kind
    if kind == "super_symmetric":
        assert loaded.dims == (data.n,) * data.m
        assert all(loaded.data[key] == value for key, value in data.items())
    else:
        assert loaded.dims == data.shape
        np.testing.assert_array_equal(loaded.data, data)


def test_writer_stores_sorted_nonzero_rows(tmp_path):
    F = SuperSymmetricTensor(2, 4, {(0, 0, 0, 0): 1.5, (0, 1, 1, 1): -2.0,
                                    (1, 1, 1, 1): 0.0})
    path = tmp_path / "t.tensor"
    write_tensor(path, F)
    lines = path.read_text().splitlines()
    assert lines[3] == "entries 2"
    rows = [line.split() for line in lines[4:]]
    for row in rows:
        idx = [int(tok) for tok in row[:4]]
        assert idx == sorted(idx)
    assert len(rows) == 2


def test_comments_and_blank_lines_are_skipped(tmp_path):
    body = ("# generated by hand\n\ntensorfile 1\n# kind comes next\n"
            "kind super_symmetric\ndims 2 2 2 2\n\nentries 1\n"
            "1 1 2 2 0.5\n# trailing comment\n")
    loaded = read_tensor(write_text(tmp_path / "c.tensor", body))
    assert loaded.data[0, 0, 1, 1] == 0.5
    assert loaded.data[1, 0, 1, 0] == 0.5


@pytest.mark.parametrize("body,fragment", [
    ("tensor 1\n", "expected 'tensorfile'"),
    ("tensorfile 2\n", "unsupported format version"),
    ("tensorfile 1\nkind symmetric\n", "kind must be one of"),
    ("tensorfile 1\nkind super_symmetric\ndims 2 3 2 3\n", "cubical"),
    ("tensorfile 1\nkind partial_symmetric\ndims 2 3 3 2\nentries 0\n",
     "n m n m"),
    ("tensorfile 1\nkind general\ndims 2 0\nentries 0\n", "positive"),
    (HEADER + "entries x\n", "entries <count>"),
    (HEADER + "entries 1\n1 1 1 0.5\n", "got 4 fields"),
    (HEADER + "entries 1\n1 1 1 3 0.5\n", "out of range"),
    (HEADER + "entries 1\n1 2 1 2 0.5\n", "not sorted"),
    (HEADER + "entries 2\n1 1 1 2 0.5\n1 1 1 2 0.25\n", "duplicate"),
    (HEADER + "entries 1\n1 1 1 2 nan\n", "finite"),
    (HEADER + "entries 1\n1 1 1 2 abc\n", "bad value"),
    (HEADER + "entries 2\n1 1 1 2 0.5\n", "ended early"),
    (HEADER + "entries 1\n1 1 1 2 0.5\nextra line\n", "after the entry rows"),
])
def test_reader_rejects_malformed_files(tmp_path, body, fragment):
    with pytest.raises(TensorFileError) as excinfo:
        read_tensor(write_text(tmp_path / "bad.tensor", body))
    assert fragment in str(excinfo.value)


def test_reader_reports_line_numbers(tmp_path):
    body = "# comment\ntensorfile 1\nkind super_symmetric\ndims 2 2 2 2\n" \
           "entries 1\n2 1 1 1 0.5\n"
    with pytest.raises(TensorFileError) as excinfo:
        read_tensor(write_text(tmp_path / "bad.tensor", body))
    assert str(excinfo.value).startswith("line 6:")
    assert excinfo.value.line == 6


@pytest.mark.parametrize("body, line, fragment", [
    ("tensorfile \u00b9\n", 1, "tensorfile <version>"),
    (HEADER + "entries \u00b9\n", 4, "entries <count>"),
    (HEADER + "entries \u0661\n", 4, "entries <count>"),
    ("tensorfile 1\nkind general\ndims \u0662 \u0662\nentries 1\n"
     "\u0661 \u0662 0.5\n", 3, "dims must be positive integers"),
    ("tensorfile 1\nkind general\ndims 2 2\nentries 1\n\u0661 \u0662 0.5\n",
     5, "entry rows must be ASCII"),
])
def test_non_ascii_digits_name_their_line(tmp_path, capsys, body, line,
                                          fragment):
    # superscript and Arabic-Indic digits pass str.isdigit; int() refuses
    # the first and reads the second, in counts, dims and indices alike
    path = write_text(tmp_path / "bad.tensor", body)
    with pytest.raises(TensorFileError) as excinfo:
        read_tensor(path)
    assert excinfo.value.line == line and fragment in str(excinfo.value)
    assert main(["solve", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: line {line}:")


@pytest.mark.parametrize("kind, dims, size", [
    ("super_symmetric", "100 100 100 100", math.comb(103, 4)),
    ("partial_symmetric", "46 46 46 46", 46 ** 4),
    ("general", "2049 2048", 2049 * 2048)])
def test_reader_refuses_an_array_above_the_size_limit(tmp_path, kind, dims, size):
    # the class-value or dense array would hold more than 2048**2 values:
    # refused on the dims line, before it is allocated
    body = f"tensorfile 1\nkind {kind}\ndims {dims}\nentries 0\n"
    limit = f"holds {size} values, above the limit 4194304"
    with pytest.raises(TensorFileError, match=limit) as excinfo:
        read_tensor(write_text(tmp_path / "big.tensor", body))
    assert excinfo.value.line == 3


def test_sparse_tensors_build_no_table_of_every_class(tmp_path):
    # at (64, 4), 766 480 classes, a file, a constructor call and an index
    # read rank their few entries without listing the key of every class
    before = tensors._class_keys.cache_info()
    body = ("tensorfile 1\nkind super_symmetric\ndims 64 64 64 64\nentries 2\n"
            "1 1 1 1 0.5\n2 3 5 64 -1.25\n")
    F = read_tensor(write_text(tmp_path / "sparse.tensor", body)).data
    G = SuperSymmetricTensor(64, 4, {(63, 4, 2, 1): -1.25, (0, 0, 0, 0): 0.5})
    assert (F[(63, 1, 2, 4)], F[(0, 0, 0, 0)], G[(4, 63, 1, 2)]) == (-1.25, 0.5, -1.25)
    assert np.array_equal(F._classes, G._classes)
    assert tensors._class_keys.cache_info() == before


def test_reader_checks_partial_symmetry(tmp_path):
    body = ("tensorfile 1\nkind partial_symmetric\ndims 2 2 2 2\nentries 1\n"
            "1 1 2 2 0.5\n")
    with pytest.raises(TensorFileError, match="partial symmetry violated"):
        read_tensor(write_text(tmp_path / "bad.tensor", body))


def test_writer_input_checks(tmp_path):
    with pytest.raises(TypeError):
        write_tensor(tmp_path / "x", np.zeros((2, 2)), "super_symmetric")
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x", np.zeros(3), "dense")
    bad = np.zeros((2, 2, 2, 2))
    bad[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError, match="partial symmetry"):
        write_tensor(tmp_path / "x", bad, "partial_symmetric")


@pytest.mark.parametrize("data, kind", [
    (np.zeros((0, 0, 0, 0)), "general"),
    (np.zeros(()), "general"),
    (np.zeros((0, 0, 0, 0)), "partial_symmetric"),
    (np.zeros((2, 3, 3, 2)), "partial_symmetric"),
    (np.broadcast_to(0.0, (2049, 2048)), "general")])
def test_writer_refuses_dims_the_reader_refuses(tmp_path, data, kind):
    path = tmp_path / "x"
    with pytest.raises(ValueError, match="dims"):
        write_tensor(path, data, kind)
    assert not path.exists()


@pytest.mark.parametrize("args", [
    ["--kind", "general", "--n", "0"],
    ["--kind", "general", "--n", "2", "--order", "0"],
    ["--kind", "partial_symmetric", "--n", "0"]])
def test_cli_gen_refuses_empty_dims(tmp_path, capsys, args):
    path = tmp_path / "e.tensor"
    assert main(["gen", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "dims" in captured.err
    assert captured.out == "" and not path.exists()


def test_cli_gen_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.tensor"), str(tmp_path / "b.tensor")
    assert main(["gen", a, "--n", "3", "--seed", "7"]) == 0
    assert main(["gen", b, "--n", "3", "--seed", "7"]) == 0
    assert (tmp_path / "a.tensor").read_bytes() == \
        (tmp_path / "b.tensor").read_bytes()


def test_cli_solve_certified_instance(tmp_path, capsys):
    path = str(tmp_path / "t.tensor")
    main(["gen", path, "--n", "3", "--seed", "0"])
    code = main(["solve", path, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["certified"] is True
    assert payload["method"] == "sdp"
    assert payload["termination"] == "gap"
    assert len(payload["x"]) == 3
    bound = payload["bound"]
    assert bound * (1 - 1e-6) <= payload["lambda"] <= bound * (1 + 1e-12)

    code = main(["solve", path, "--method", "nnp", "--json"])
    nnp = json.loads(capsys.readouterr().out)
    assert code == 0
    assert nnp["lambda"] == pytest.approx(payload["lambda"], abs=1e-4)


@pytest.mark.parametrize("extra, expected", [([], 0), (["--max-iter", "1"], 2)])
def test_cli_solve_prints_bound_and_gap(tmp_path, capsys, extra, expected):
    # the bound holds at any iterate, so the gap is nonnegative whether or
    # not the solve certifies
    path = str(tmp_path / "t.tensor")
    main(["gen", path, "--n", "3", "--seed", "0"])
    assert main(["solve", path, "--json", *extra]) == expected
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified"] is (expected == 0)
    assert math.isfinite(payload["bound"]) and math.isfinite(payload["gap"])
    assert payload["gap"] >= -1e-12 * abs(payload["bound"])


@pytest.mark.parametrize("gen, method, expected", [
    (["--n", "3"], "sdp", 0),                                  # order 4
    (["--n", "4", "--order", "3"], "sdp", 0),                  # squared
    (["--kind", "general", "--n", "4", "--order", "3"], "sdp", 0),
    (["--kind", "general", "--n", "3", "--order", "5"], "sdp", 0),
    (["--kind", "general", "--n", "3"], "sdp", 0),             # stacked
    (["--kind", "general", "--n", "3", "--order", "2"], "sdp", 0),
    (["--kind", "general", "--n", "1", "--order", "6"], "nnp", 0),
    (["--kind", "partial_symmetric", "--n", "3", "--m", "4"], "sdp", 0)],
    ids=["symmetric", "odd", "trilinear", "order-5", "quadrilinear",
         "stacked-2", "stacked-6", "biquadratic"])
def test_cli_bound_is_on_the_scale_of_lambda(tmp_path, capsys, gen, method,
                                             expected):
    # every reduction maps the solve's bound back onto the printed lambda:
    # the bound is above it, and a certified value closes the gap
    path = str(tmp_path / "t.tensor")
    main(["gen", path, *gen, "--seed", "0"])
    assert main(["solve", path, "--method", method, "--json"]) == expected
    payload = json.loads(capsys.readouterr().out)
    bound, value = payload["bound"], payload["lambda"]
    assert payload["gap"] == bound - value
    assert bound >= value - 1e-12 * abs(bound)
    if payload["certified"]:
        assert payload["gap"] <= 1e-6 * abs(bound)


def test_cli_solve_biquadratic_file(tmp_path, capsys):
    path = str(tmp_path / "p.tensor")
    main(["gen", path, "--n", "3", "--m", "4", "--kind", "partial_symmetric",
          "--seed", "1"])
    code = main(["solve", path, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["kind"] == "partial_symmetric"
    assert len(payload["x"]) == 3 and len(payload["y"]) == 4


@pytest.mark.parametrize("route", ["order 3", "order 4", "biquadratic", "cli"])
def test_method_is_honoured_on_every_route(route, tmp_path, monkeypatch,
                                           capsys):
    rng = np.random.default_rng(0)
    G = random_partial_symmetric(2, 3, 0)
    path = str(tmp_path / "p.tensor")
    write_tensor(path, G, "partial_symmetric")
    run = {
        "order 3": lambda method: solve_leading_pc(
            rng.standard_normal((2, 3, 2)), method),
        "order 4": lambda method: solve_leading_pc(
            rng.standard_normal((2, 2, 2, 2)), method),
        "biquadratic": lambda method: solve_biquadratic(G, method),
        "cli": lambda method: main(["solve", path, "--method", method,
                                    "--json"]),
    }[route]
    shrink = admm.shrink_nuclear
    calls = []

    def counted(*args):
        calls.append(args)
        return shrink(*args)

    monkeypatch.setattr(admm, "shrink_nuclear", counted)
    for method in ("nnp", "sdp"):
        calls.clear()
        run(method)
        assert bool(calls) == (method == "nnp"), method
        if route == "cli":
            assert json.loads(capsys.readouterr().out)["method"] == method


def test_cli_calls_in_one_process_share_no_state(tmp_path, capsys):
    # the parser is built once per process: a second call on the same file
    # takes every default afresh, whatever the first call set
    path = str(tmp_path / "t.tensor")
    write_tensor(path, random_gaussian(3, 4, 0))
    assert cli._parser() is cli._parser()
    assert main(["solve", path, "--method", "nnp", "--max-iter", "1",
                 "--json"]) == 2
    first = json.loads(capsys.readouterr().out)
    assert first["method"] == "nnp" and first["iterations"] == 1
    assert main(["solve", path, "--json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["method"] == "sdp" and second["certified"] is True
    assert second["iterations"] > 1


def test_cli_solver_defaults_are_solver_config(tmp_path, monkeypatch, capsys):
    # with no solver flags, solve and experiment hand over SolverConfig()
    seen = []

    def spy(solver):
        def run(F, *args):
            seen.append(args[-1])
            return solver(F, *args)
        return run

    monkeypatch.setattr(cli, "solve_leading_pc", spy(cli.solve_leading_pc))
    monkeypatch.setattr(cli, "solve_sdp", spy(cli.solve_sdp))
    path = str(tmp_path / "t.tensor")
    write_tensor(path, random_gaussian(2, 4, 0))
    assert main(["solve", path]) == 0
    assert main(["experiment", "--n", "2", "--trials", "1"]) == 0
    capsys.readouterr()
    assert seen == [SolverConfig(), SolverConfig()]


def test_cli_solve_uses_fallback_exit_code(tmp_path, capsys):
    # a generic 4-way array has a two-sided sign symmetry, so the stacked
    # relaxation lands on a flat face and the rank-one certificate fails by
    # design; the fallback's value then closes the gap to the dual bound.
    # One iteration stops on the cap, which certifies nothing
    path = str(tmp_path / "g.tensor")
    main(["gen", path, "--n", "2", "--order", "4", "--kind", "general",
          "--seed", "0"])
    assert main(["solve", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["certified"] is True
    code = main(["solve", path, "--json", "--max-iter", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["certified"] is False
    assert all(f"x{i}" in payload for i in (1, 2, 3, 4))


def test_cli_error_exit_codes(tmp_path, capsys):
    bad = write_text(tmp_path / "bad.tensor", "tensorfile 9\n")
    assert main(["solve", bad]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.tensor")]) == 1
    capsys.readouterr()
    general = str(tmp_path / "g.tensor")
    main(["gen", general, "--kind", "general", "--n", "2", "--seed", "0"])
    assert main(["oracle", general]) == 1
    assert "super_symmetric" in capsys.readouterr().err
    # a nan tolerance would run every iteration, a rank tolerance of 2 would
    # certify any X, a negative seed would fail only in a fallback, and a
    # restart count below one would be read as one
    symmetric = str(tmp_path / "s.tensor")
    main(["gen", symmetric, "--n", "3", "--seed", "0"])
    capsys.readouterr()
    for args in (["solve", symmetric, "--tol", "nan"],
                 ["solve", symmetric, "--rank-tol", "2"],
                 ["solve", symmetric, "--seed", "-1"],
                 ["oracle", symmetric, "--mode", "multistart", "--restarts", "-3"]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    # gen refuses a flag that cannot apply to the kind, and an empty order,
    # naming what it refuses
    for args, named in (
            (["--kind", "partial_symmetric", "--dist", "uniform"], "gaussian"),
            (["--kind", "partial_symmetric", "--order", "6"], "--order"),
            (["--m", "3"], "--m"),
            (["--kind", "general", "--m", "3"], "--m"),
            (["--order", "0"], "order")):
        path = tmp_path / "p.tensor"
        assert main(["gen", str(path), "--n", "2", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and named in captured.err
        assert captured.out == "" and not path.exists()
    assert main(["gen", str(path), "--n", "2", "--kind", "partial_symmetric",
                 "--order", "4", "--m", "3"]) == 0
    assert read_tensor(path).dims == (2, 3, 2, 3)


def test_cli_order_one_file_names_its_order(tmp_path, capsys):
    path = tmp_path / "v.tensor"
    write_tensor(path, random_gaussian(3, 1, 0))
    general = tmp_path / "g.tensor"
    write_tensor(general, np.ones(3), "general")
    for command, target in (("solve", path), ("oracle", path),
                            ("solve", general)):
        assert main([command, str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "order 1" in captured.err
        assert captured.out == ""


def test_cli_oracle_matches_solve(tmp_path, capsys):
    path = str(tmp_path / "t.tensor")
    main(["gen", path, "--n", "2", "--seed", "3"])
    main(["solve", path, "--json"])
    solved = json.loads(capsys.readouterr().out)
    assert main(["oracle", path, "--json"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["oracle"] == "sphere_grid"
    assert oracle["value"] == pytest.approx(solved["lambda"], abs=1e-4)

    assert main(["oracle", path, "--mode", "multistart", "--json"]) == 0
    multistart = json.loads(capsys.readouterr().out)
    assert multistart["oracle"] == "multistart"
    assert multistart["value"] == pytest.approx(oracle["value"], abs=1e-6)


def test_cli_oracle_handles_odd_order(tmp_path, capsys):
    path = str(tmp_path / "t.tensor")
    main(["gen", path, "--n", "2", "--order", "3", "--seed", "5"])
    main(["solve", path, "--json"])
    solved = json.loads(capsys.readouterr().out)
    assert main(["oracle", path, "--json"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["value"] >= 0.0
    assert oracle["value"] == pytest.approx(solved["lambda"], abs=1e-4)


def test_cli_experiment_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    code = main(["experiment", "--n", "2", "3", "--trials", "3",
                 "--method", "both", "--output", out])
    assert code == 0
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "nnp" and first[2] == "3"
    assert int(first[3]) <= 3 and first[7] == "0"

    code = main(["experiment", "--n", "2", "--m", "3", "--family",
                 "biquadratic", "--trials", "2"])
    assert code == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0] == ",".join(CSV_COLUMNS)
    assert stdout[1].split(",")[0] == "2x3"

    code = main(["experiment", "--family", "biquadratic", "--n", "4", "--m",
                 "4", "--trials", "2", "--method", "both"])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [["4x4", "nnp", "2"], ["4x4", "sdp", "2"]]
    assert all(row[7] == "0" for row in rows)


def strip_wall_time(rows):
    return [{k: v for k, v in row.items() if k != "mean_wall_time"}
            for row in rows]


def test_experiment_rows_are_reproducible():
    spec = ExperimentSpec(sizes=(3,), trials=4, methods=("nnp", "sdp"),
                          seed_base=11)
    first = run_experiment(spec)
    assert strip_wall_time(first) == strip_wall_time(run_experiment(spec))
    assert all(row["rank_one_count"] == 4 for row in first)


def tied_partial_symmetric(n, m, seed):
    # two orthonormal rank-one terms: the maximum 1 is attained at both, so
    # the relaxation's X is a mixture, never rank one, while its value
    # closes the gap
    rng = np.random.default_rng(seed)
    qa, _ = np.linalg.qr(rng.standard_normal((n, n)))
    qb, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return partial_symmetrize(sum(
        np.einsum("i,j,k,l->ijkl", qa[:, j], qb[:, j], qa[:, j], qb[:, j])
        for j in range(2)))


def test_biquadratic_rank_one_count_counts_rank_one_solves(monkeypatch):
    # rank_one_count is the paper's statistic, not the certificate: every
    # tied solve certifies and none is rank one
    monkeypatch.setattr(cli, "random_partial_symmetric", tied_partial_symmetric)
    spec = ExperimentSpec(sizes=((3, 4),), trials=3, methods=("nnp", "sdp"),
                          family="biquadratic")
    rows = run_experiment(spec)
    assert [row["rank_one_count"] for row in rows] == [0, 0]
    for method in spec.methods:
        for t in range(spec.trials):
            G = tied_partial_symmetric(3, 4, t)
            assert solve_biquadratic(G, method)[0].certified, (method, t)


def test_experiment_logs_a_failed_trial(monkeypatch, caplog):
    draw = cli.random_gaussian

    def fail_at_seed_12(n, m, seed):
        if seed == 12:
            raise RuntimeError("no instance for seed 12")
        return draw(n, m, seed)

    monkeypatch.setattr(cli, "random_gaussian", fail_at_seed_12)
    spec = ExperimentSpec(sizes=(2,), trials=3, seed_base=11)
    with caplog.at_level(logging.DEBUG, logger="tensorpca.cli"):
        (row,) = run_experiment(spec)
    assert row["failed"] == 1
    assert row["rank_one_count"] <= 2 and math.isfinite(row["mean_iter"])
    assert [str(r.exc_info[1]) for r in caplog.records if r.exc_info] \
        == ["no instance for seed 12"]


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=(3,), trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=(3,), trials=1, family="cubic")
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=(3,), trials=1, methods=("admm",))
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=(2, 3), trials=1, family="biquadratic")
    # sizes that no trial can solve
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=(0,), trials=2)
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=(3,), trials=1, d=0)
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=((0, 3),), trials=1, family="biquadratic")
    with pytest.raises(ValueError):
        ExperimentSpec(sizes=((3, 0),), trials=1, family="biquadratic")
    # non-integral counts and sizes, which no trial could use
    for kwargs in ({"sizes": (2.5,), "trials": 2},
                   {"sizes": (3,), "trials": 2, "d": 1.5},
                   {"sizes": ((2, 2.5),), "trials": 2, "family": "biquadratic"},
                   {"sizes": (3,), "trials": 1.5}):
        with pytest.raises(ValueError, match="integer"):
            ExperimentSpec(**kwargs)
    spec = ExperimentSpec(sizes=(np.int64(2),), trials=np.int64(1),
                          d=np.int64(1))
    (row,) = run_experiment(spec)
    assert row["failed"] == 0


def test_cli_experiment_rejects_unsolvable_sizes(capsys):
    for args in (["--n", "0", "--trials", "2"], ["--n", "3", "--d", "0"],
                 ["--family", "biquadratic", "--n", "0", "--m", "3"]):
        assert main(["experiment", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
