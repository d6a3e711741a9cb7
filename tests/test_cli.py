"""End-to-end command-line checks: reports, exit codes, input validation."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockpair as fp
from fockpair.cli import load_matrix, main


def write_matrix(path, mat, role="antilinear_symmetric"):
    mat = np.asarray(mat, dtype=complex)
    doc = {
        "dim": mat.shape[0],
        "role": role,
        "entries": [
            [{"re": float(c.real), "im": float(c.imag)} for c in row] for row in mat
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    if doc is not None:
        # every report carries the same envelope, named after its subcommand
        assert set(doc) == {"command", "config", "result", "wall_time_s", "version"}
        assert doc["command"] == argv[0]
    return code, doc


@pytest.fixture
def files(tmp_path):
    return {
        "sigma2": write_matrix(tmp_path / "sigma2.json", np.eye(2)),
        "negsigma2": write_matrix(tmp_path / "negsigma2.json", -np.eye(2)),
        "diag06": write_matrix(tmp_path / "diag06.json", [[0.6]]),
        "eye2": write_matrix(tmp_path / "eye2.json", np.eye(2), role="general"),
        "twoeye3": write_matrix(tmp_path / "twoeye3.json", 2 * np.eye(3), role="general"),
        "negeye2": write_matrix(tmp_path / "negeye2.json", -np.eye(2), role="general"),
        "dir": tmp_path,
    }


def test_pair_series_divergent(files, capsys):
    code, doc = run_cli(
        capsys, ["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "series"]
    )
    assert code == 2
    assert doc["command"] == "pair"
    assert doc["result"]["verdict"] == "divergent"
    assert doc["result"]["value"] is None


def test_pair_abel_recovers_boundary_value(files, capsys):
    code, doc = run_cli(
        capsys, ["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "abel"]
    )
    assert code == 0
    assert doc["result"]["verdict"] == "converged"
    assert doc["result"]["value"]["re"] == pytest.approx(0.5, abs=1e-4)
    assert abs(doc["result"]["value"]["im"]) < 1e-6


def test_pair_closed_matches_library(files, capsys):
    code, doc = run_cli(
        capsys, ["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "closed"]
    )
    assert code == 0
    assert doc["result"]["value"]["re"] == pytest.approx(0.5, rel=1e-10)


def test_pair_series_scaled(files, capsys):
    code, doc = run_cli(
        capsys,
        ["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "series", "--t", "0.9"],
    )
    assert code == 0
    sx = fp.GaussianSeed.from_matrix(np.eye(2))
    sy = fp.GaussianSeed.from_matrix(-np.eye(2))
    want = fp.pair_closed(sx, sy, 0.81)
    assert doc["result"]["value"]["re"] == pytest.approx(want.real, rel=1e-8)


def test_pair_t_means_the_same_for_series_and_closed(files, capsys):
    z = write_matrix(files["dir"] / "half.json", [[0.5]])
    values = {}
    for method in ("series", "closed"):
        code, doc = run_cli(capsys, ["pair", "--x", z, "--y", z, "--method", method, "--t", "0.9"])
        assert code == 0 and doc["config"]["t"] == 0.9
        values[method] = doc["result"]["value"]["re"]
    assert values["series"] == pytest.approx(values["closed"], rel=1e-10)
    for t in ("-0.5", "1.5"):
        code, _ = run_cli(capsys, ["pair", "--x", z, "--y", z, "--method", "closed", "--t", t])
        assert code == 1
    code, doc = run_cli(capsys, ["pair", "--x", z, "--y", z, "--method", "abel", "--t", "0.9"])
    assert code == 1 and doc is None


def test_norm_closed_and_series(files, capsys):
    code, doc = run_cli(capsys, ["norm", "--z", files["diag06"], "--method", "closed"])
    assert code == 0
    assert doc["result"]["norm_sq"] == pytest.approx(1.25, abs=1e-12)
    code, _ = run_cli(capsys, ["norm", "--z", files["sigma2"], "--method", "closed"])
    assert code == 4
    code, doc = run_cli(capsys, ["norm", "--z", files["sigma2"], "--method", "series"])
    assert code == 2
    assert doc["result"]["verdict"] == "divergent"


def test_detsqrt_values_and_domain(files, capsys):
    code, doc = run_cli(capsys, ["detsqrt", "--matrix", files["eye2"]])
    assert code == 0
    assert doc["result"]["value"]["re"] == pytest.approx(1.0)
    assert doc["result"]["square_identity_residual"] < 1e-12
    code, doc = run_cli(capsys, ["detsqrt", "--matrix", files["twoeye3"]])
    assert code == 0
    assert doc["result"]["value"]["re"] == pytest.approx(2.0 ** 1.5, rel=1e-12)
    assert doc["result"]["max_segment_arg_jump"] < 0.5
    assert doc["result"]["continuation_residual"] < 1e-8
    code, _ = run_cli(capsys, ["detsqrt", "--matrix", files["negeye2"]])
    assert code == 4


def test_takagi_report(files, capsys):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = (a + a.T) / 2
    a *= 0.5 / np.linalg.norm(a, 2)
    path = write_matrix(files["dir"] / "takagi.json", a)
    code, doc = run_cli(capsys, ["takagi", "--z", path])
    assert code == 0
    vals = doc["result"]["values"]
    assert vals == sorted(vals, reverse=True)
    assert doc["result"]["reconstruction_residual"] < 1e-10
    assert doc["result"]["unitarity_residual"] < 1e-10
    assert doc["result"]["siegel_membership"] == "open"


def test_demo_commands(capsys):
    code, doc = run_cli(capsys, ["demo", "sequence-noninvariance"])
    assert code == 0
    assert doc["result"]["before_swap"]["value"]["re"] == pytest.approx(0.5, abs=1e-6)
    assert doc["result"]["after_swap"]["value"]["re"] == pytest.approx(1.5, abs=1e-6)
    code, doc = run_cli(capsys, ["demo", "divergence", "--dim", "4"])
    assert code == 0
    assert doc["result"]["max_deviation"] < 1e-9
    assert doc["result"]["ratios"][0] == pytest.approx(2.0)


def test_verify_suite_and_determinism(capsys):
    code, first = run_cli(capsys, ["verify", "--suite", "algebra", "--seed", "7"])
    assert code == 0
    assert first["result"]["passed"]
    assert all(c["passed"] for c in first["result"]["checks"])
    code, second = run_cli(capsys, ["verify", "--suite", "algebra", "--seed", "7"])
    assert code == 0
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_malformed_inputs_exit_one(files, capsys, tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    code, _ = run_cli(capsys, ["detsqrt", "--matrix", str(bad_json)])
    assert code == 1
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dim": 2, "entries": []}))
    code, _ = run_cli(capsys, ["detsqrt", "--matrix", str(missing)])
    assert code == 1
    asym = write_matrix(tmp_path / "asym.json", [[0.0, 0.4], [0.0, 0.0]])
    code, _ = run_cli(capsys, ["norm", "--z", asym, "--method", "closed"])
    assert code == 1
    code, _ = run_cli(capsys, ["pair", "--x", files["eye2"], "--y", files["sigma2"], "--method", "closed"])
    assert code == 1  # role mismatch: pair wants antilinear_symmetric
    code, _ = run_cli(capsys, ["norm", "--z", str(tmp_path / "absent.json"), "--method", "closed"])
    assert code == 1
    # json reads NaN and Infinity; each such cell, and a fractional dim, is named
    nan = write_matrix(tmp_path / "nan.json", [[np.nan, 0.1], [0.1, 0.3]])
    asym_nan = write_matrix(tmp_path / "asym_nan.json", [[np.nan, 0.1], [0.2, 0.3]])
    inf = write_matrix(tmp_path / "inf.json", [[0.2, 0.1], [0.1, complex(0.3, np.inf)]])
    nan_general = write_matrix(tmp_path / "nan_general.json", [[1.0, 0.0], [0.0, np.nan]], role="general")
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"dim": 2.7, "role": "antilinear_symmetric", "entries": []}))
    # every other way a file can fail to be a matrix file; booleans and
    # strings are not numbers, though float() would take them
    cell = {"re": 0.25, "im": 0.0}
    shapes = {
        "list": ([[cell]], "expected a JSON object"),
        "role": ({"dim": 1, "role": "hermitian", "entries": [[cell]]}, "unknown role 'hermitian'"),
        "rows": ({"dim": 2, "role": "antilinear_symmetric", "entries": [[cell, cell]]}, "entries must form a 2 x 2 array"),
        "row": ({"dim": 2, "role": "antilinear_symmetric", "entries": [[cell, cell], [cell]]}, "row 1 must have 2 entries"),
        "cell": ({"dim": 1, "role": "antilinear_symmetric", "entries": [[{"re": 0.25}]]}, "bad entry at (0,0)"),
        "bool_dim": ({"dim": True, "role": "antilinear_symmetric", "entries": [[{"re": True, "im": "0.25"}]]},
                     "dim must be an integer, found True"),
        "bool_re": ({"dim": 1, "role": "antilinear_symmetric", "entries": [[{"re": True, "im": 0.0}]]},
                    "bad entry at (0,0): re and im must be numbers, found True and 0.0"),
        "str_im": ({"dim": 1, "role": "antilinear_symmetric", "entries": [[{"re": 0.25, "im": "0.25"}]]},
                   "bad entry at (0,0): re and im must be numbers, found 0.25 and '0.25'"),
    }
    malformed = []
    for name, (doc, named) in shapes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        malformed.append((["takagi", "--z", str(path)], named))
    # a float dim with an integral value is still a dimension
    integral = tmp_path / "integral.json"
    integral.write_text(json.dumps({"dim": 1.0, "role": "antilinear_symmetric", "entries": [[cell]]}))
    code, doc = run_cli(capsys, ["takagi", "--z", str(integral)])
    assert code == 0 and doc["result"]["values"] == [0.25]
    for argv, named in malformed + [
        (["takagi", "--z", nan], "(0,0)"),
        (["takagi", "--z", asym_nan], "(0,0)"),
        (["pair", "--x", inf, "--y", files["sigma2"], "--method", "closed"], "(1,1)"),
        (["norm", "--z", nan, "--method", "series"], "(0,0)"),
        (["detsqrt", "--matrix", nan_general], "(1,1)"),
        (["takagi", "--z", str(fractional)], "2.7"),
    ]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and not captured.out, argv
        assert captured.err.startswith("input error") and named in captured.err, captured.err
    for dim in ("-1", "0"):
        code = main(["demo", "divergence", "--dim", dim])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out and "dim must be >= 1" in captured.err, (dim, captured.err)


def test_negative_max_degree_exits_one(files, capsys):
    for argv in (
        ["pair", "--x", files["diag06"], "--y", files["diag06"], "--method", "series"],
        ["pair", "--x", files["diag06"], "--y", files["diag06"], "--method", "abel"],
        ["norm", "--z", files["diag06"], "--method", "series"],
    ):
        code = main(argv + ["--max-degree", "-5"])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert "max_degree must be >= 0" in captured.err


def _reject_constant(name):
    raise ValueError(f"report holds the non-standard JSON constant {name}")


def test_reports_are_strict_json(files, capsys):
    # at degree 0 nothing is summed: the tail and the residual are not finite
    for method in ("series", "abel"):
        main(["pair", "--x", files["diag06"], "--y", files["diag06"], "--method", method, "--max-degree", "0"])
        doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert doc["result"]["verdict"] == "undecided"
        assert doc["result"]["tail_estimate"] is None
        assert doc["result"]["extrapolation_residual"] is None
    code = main(["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "abel"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 0 and doc["result"]["extrapolation_residual"] >= 0.0


def test_usage_errors_exit_one(capsys):
    for argv in (
        ["pair", "--x", "a.json", "--y", "b.json", "--method", "bogus"],
        ["verify", "--suite", "nonsense"],
        ["frobnicate"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        capsys.readouterr()


def test_help_states_exit_codes_not_internals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for code in ("exit codes", "0 success", "1 malformed input", "2 divergence verdict",
                 "3 undecided verdict", "4 domain violation"):
        assert code in out
    # implementation notes for readers of the code stay out of the help
    assert "gaussian_terms" not in out and "import" not in out and "modules" not in out


def test_load_matrix_symmetrizes_rounded_input(tmp_path):
    a = np.array([[0.0, 0.3 + 1e-12], [0.3, 0.0]], dtype=complex)
    path = write_matrix(tmp_path / "round.json", a)
    out = load_matrix(path, "antilinear_symmetric")
    assert np.array_equal(out, out.T)


def test_console_script_installed():
    exe = shutil.which("fockpair")
    if exe is None:
        # not installed: check the declared entry point and run that target
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["fockpair"]
        assert target == "fockpair.cli:main"
        module, func = target.split(":")
        cmd = [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]
    else:
        cmd = [exe]
    proc = subprocess.run(
        cmd + ["demo", "divergence", "--dim", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "demo"
    assert doc["version"] == fp.__version__


def test_cli_import_leaves_scipy_out(files):
    # numpy is the only dependency; importing scipy would double the CLI's
    # start-up.  Each command loads only the modules it runs, checked in this
    # order as sys.modules only grows; the closed methods build no scatter
    # plan, product layout or binomial-root table
    runs = [
        (["detsqrt", "--matrix", files["eye2"]], {"algebra", "antilinear", "gaussian", "pairing", "suites"}),
        (["takagi", "--z", files["sigma2"]], {"algebra", "gaussian", "pairing", "suites"}),
        (["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "closed"], {"pairing", "suites"}),
        (["norm", "--z", files["diag06"], "--method", "closed"], {"pairing", "suites"}),
        (["pair", "--x", files["diag06"], "--y", files["diag06"], "--method", "series"], {"suites"}),
        (["verify", "--suite", "hoelder"], set()),
    ]
    code = (f"import contextlib, io, sys\n"
            f"def loaded(): return {{name.removeprefix('fockpair.') for name in sys.modules if name.startswith('fockpair.')}}\n"
            f"import fockpair.cli\n"
            f"assert loaded() == {{'cli', 'errors'}}, loaded()\n"
            f"for argv, absent in {runs!r}:\n"
            f"    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert fockpair.cli.main(argv) == 0, argv\n"
            f"    assert not loaded() & absent, (argv, loaded() & absent)\n"
            f"    if argv[-1] == 'closed':\n"
            f"        from fockpair import algebra\n"
            f"        assert algebra._scatter_plan.cache_info().currsize == 0\n"
            f"        assert algebra._product_layout.cache_info().currsize == 0\n"
            f"        assert not [key for key in algebra._grown_tables if key[0] == 'binomial_roots']\n"
            f"assert 'suites' in loaded() and 'scipy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_series_commands_match_element_route(files, capsys):
    # each streamed report holds the element route's verdict, rule and
    # horizon; its value, tail and residual agree to 1e-12 relative (in dim
    # one the two routes round the product differently)
    from fockpair import cli
    from fockpair.pairing import RegularizationConfig

    rng = np.random.default_rng(23)
    mats = [fp.random_symmetric(m, rng, norm=norm).matrix for m, norm in ((1, 0.9), (2, 0.95), (3, 0.7), (2, 1.0))]
    paths = [write_matrix(files["dir"] / f"s{k}.json", a) for k, a in enumerate(mats)]
    pairs = [(paths[0], files["diag06"], 200), (paths[1], paths[3], 200), (paths[2], paths[2], 60),
             (files["sigma2"], files["negsigma2"], 200), (paths[3], paths[3], 120)]
    for x, y, cap in pairs:
        cfg = RegularizationConfig(max_degree=cap)
        ex = fp.gaussian_series(cli._seed_from_file(x), cap)
        ey = fp.gaussian_series(cli._seed_from_file(y), cap)
        runs = [
            (["pair", "--x", x, "--y", y, "--method", "series"], fp.pairing_1(ex, ey, cfg)),
            (["pair", "--x", x, "--y", y, "--method", "series", "--t", "0.9"], fp.pairing_t(ex, ey, 0.9, cfg)),
            (["pair", "--x", x, "--y", y, "--method", "abel"], fp.abel_pairing(ex, ey, cfg)),
            (["norm", "--z", x, "--method", "series"], fp.pairing_1(ex, ex, cfg)),
        ]
        for argv, rep in runs:
            code, doc = run_cli(capsys, argv + ["--max-degree", str(cap)])
            got, want = doc["result"], cli._encode(rep)
            assert code == cli._verdict_exit(rep.verdict)
            assert got.keys() == want.keys()
            for key in got:
                a, b = got[key], want[key]
                if key in ("value", "tail_estimate", "extrapolation_residual") and None not in (a, b):
                    a, b = (complex(x["re"], x["im"]) if key == "value" else x for x in (a, b))
                    assert abs(a - b) <= 1e-12 * abs(b), (argv, key, a, b)
                else:
                    assert a == b, (argv, key, a, b)


def test_underflowing_series_stops_at_its_last_term(files, capsys):
    # h = 0.5 in dim one: the element route summed degree by degree up to the
    # cap and reported these fields; the stream stops once a degree is all zero
    h = write_matrix(files["dir"] / "h.json", [[0.5]])
    code, doc = run_cli(capsys, ["pair", "--x", h, "--y", h, "--method", "series", "--max-degree", "4000000"])
    rep = doc["result"]
    assert code == 0
    assert {k: rep[k] for k in ("method", "verdict", "rule", "converged", "truncation_degree", "tail_estimate")} == {
        "method": "series_1", "verdict": "converged", "rule": "geometric_tail", "converged": True,
        "truncation_degree": 1068, "tail_estimate": 5e-324}
    assert rep["value"]["re"] == pytest.approx(2.0 / 3.0**0.5, rel=1e-12) and rep["value"]["im"] == 0.0
    # a cap past the coefficient budget still fails at once, with its own message
    code = main(["pair", "--x", h, "--y", h, "--method", "series", "--max-degree", str(10**9)])
    captured = capsys.readouterr()
    assert code == 1 and not captured.out
    assert captured.err == "error: series of dim 1 to degree 1000000000 needs more than 50000000 coefficients\n"


def test_series_commands_keep_no_scatter_plan(files):
    # the series, Abel and norm commands and the divergence demo stream their
    # terms: no scatter plan or product layout is left in the process
    argvs = [
        ["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "series"],
        ["pair", "--x", files["sigma2"], "--y", files["negsigma2"], "--method", "abel"],
        ["norm", "--z", files["diag06"], "--method", "series"],
        ["demo", "divergence", "--dim", "4"],
    ]
    code = (f"import contextlib, io; from fockpair import algebra, cli\n"
            f"for argv in {argvs!r}:\n"
            f"    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert cli.main(argv) in (0, 2), argv\n"
            f"assert algebra._scatter_plan.cache_info().currsize == 0\n"
            f"assert algebra._product_layout.cache_info().currsize == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
