"""End-to-end command-line checks: reports, exit codes, input validation."""

import json
import shutil
import subprocess
import sys

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
    return code, json.loads(out) if out.strip() else None


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


def test_load_matrix_symmetrizes_rounded_input(tmp_path):
    a = np.array([[0.0, 0.3 + 1e-12], [0.3, 0.0]], dtype=complex)
    path = write_matrix(tmp_path / "round.json", a)
    out = load_matrix(path, "antilinear_symmetric")
    assert np.array_equal(out, out.T)


def test_console_script_installed():
    exe = shutil.which("fockpair")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "demo", "divergence", "--dim", "1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "demo"
    assert doc["version"] == fp.__version__


def test_cli_import_leaves_scipy_out():
    # numpy is the only dependency; importing scipy would double the CLI's start-up
    code = "import sys, fockpair.cli; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
