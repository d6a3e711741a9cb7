"""cli-cold: the tool as a user runs it, one fresh process per operation.

Every operation is `python -m fockpair.cli ...` on matrix files the benchmark
writes, so each one pays the import and a cold build of the basis and
scatter tables; nothing is shared between operations.  This is the only
workload that measures the table build from scratch, `cli` and `suites`.

The sequence of commands is fixed and only the data comes from the seed, so
every run of a given length does the same kinds of work.  The one command
that takes several seconds (`demo divergence --dim 4`) runs first; after it
a cycle of cheap and medium commands repeats, so the run's deadline falls
among short commands.

Left out: the `--t` flag, whose meaning differs between methods and is not
settled.  `verify` rotates over the suites algebra, hoelder and invariance;
the gaussian and counterexamples suites each take 6-7 s, a fifth of a run,
and their cost is the cold table build that `pair`/`norm --method series`
and `demo divergence` already measure.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import oracle
from harness import Op
from outcome import check, check_value, judge

TOL = 1e-8  # the CLI's default --tol
CLOSED_TOL = 1e-10
NORM_RANGE = (0.3, 0.9)
OP_TIMEOUT_S = 150

# (kind, m, --max-degree or suite); m = 0 rotates 1..4 with the cycle
PREFIX = (("demo-divergence", 4, None),)
CYCLE = (
    ("pair-closed", 0, None),
    ("pair-series", 3, 60),
    ("takagi", 4, None),
    ("norm-closed", 2, None),
    ("verify", 0, ("algebra", "hoelder", "invariance")),
    ("detsqrt", 3, None),
    ("pair-abel", 4, 24),
    ("norm-series", 1, 200),
    ("pair-series", 2, 200),
    ("takagi", 0, None),
    ("norm-series", 3, 48),
    ("pair-abel", 2, 120),
)
_EXIT_FOR = {"converged": 0, "divergent": 2, "undecided": 3}


def _matrix_doc(a: np.ndarray, role: str) -> dict:
    return {"dim": len(a), "role": role,
            "entries": [[{"re": float(x.real), "im": float(x.imag)} for x in row] for row in a]}


def _report(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _number(x) -> complex:
    return complex(x["re"], x["im"]) if isinstance(x, dict) else complex(x)


def _check_series(truth, proc):
    doc = _report(proc)
    if doc is None:
        return [check(False, f"exit {proc.returncode}, no report: {proc.stderr[-200:]}")]
    rep = doc["result"]
    value = None if rep["value"] is None else _number(rep["value"])
    return [
        check(proc.returncode == _EXIT_FOR.get(rep["verdict"]),
              f"exit {proc.returncode} for verdict {rep['verdict']}"),
        judge(rep["verdict"], value, truth, TOL),
    ]


def _check_exit0(proc):
    doc = _report(proc)
    ok = proc.returncode == 0 and doc is not None
    return check(ok, f"exit {proc.returncode}: {proc.stderr[-200:]}"), doc


def _check_closed(known, key, proc):
    status, doc = _check_exit0(proc)
    if doc is None:
        return [status]
    return [status, check_value(_number(doc["result"][key]), known, CLOSED_TOL, key)]


def _check_takagi(a, proc):
    status, doc = _check_exit0(proc)
    if doc is None:
        return [status]
    res = doc["result"]
    sing = np.linalg.svd(a, compute_uv=False)
    return [
        status,
        check(np.allclose(res["values"], sing, rtol=0, atol=CLOSED_TOL), "takagi values"),
        check(res["reconstruction_residual"] <= CLOSED_TOL, "takagi reconstruction"),
        check(res["unitarity_residual"] <= CLOSED_TOL, "takagi unitarity"),
    ]


def _check_verify(proc):
    status, doc = _check_exit0(proc)
    if doc is None:
        return [status]
    return [status, check(doc["result"]["passed"] is True, "suite reported a failed check")]


def _check_demo(m, proc):
    status, doc = _check_exit0(proc)
    if doc is None:
        return [status]
    ratios = doc["result"]["ratios"]
    expected = [(n + m / 2.0) / (n + 1.0) for n in range(len(ratios))]
    dev = max(abs(r - e) for r, e in zip(ratios, expected))
    return [status, check(len(ratios) > 0 and dev <= 1e-9, f"divergence ratios off by {dev}")]


class CliCold:
    name = "cli-cold"
    in_process = False

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        self.work = None
        self.trace_dir = None  # set by the traced run: child writes spans here

    def setup(self) -> None:
        """Fresh work directory and one untimed warm-up process."""
        self.close()
        out = os.path.join(self.root, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="cli-", dir=out)
        x = self._write(np.array([[0.5]]), "warm", "antilinear_symmetric")
        proc = self._run(["pair", "--x", x, "--y", x, "--method", "closed"])
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up process failed: {proc.stderr}")

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def _write(self, a, tag, role) -> str:
        path = os.path.join(self.work, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(_matrix_doc(a, role), fh)
        return path

    def _run(self, argv, op_id=None):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "fockpair.cli", *argv]
        else:
            cmd = [sys.executable, self.child, os.path.join(self.trace_dir, f"{op_id}.json"), *argv]
        return subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, cwd=self.work)

    def script(self):
        yield from PREFIX
        c = 0
        while True:
            for kind, m, extra in CYCLE:
                if kind == "verify" and isinstance(extra, tuple):
                    extra = extra[c % len(extra)]
                yield kind, m or 1 + c % 4, extra
            c += 1

    def ops(self, seed: int):
        rng = np.random.default_rng(seed)
        for i, (kind, m, extra) in enumerate(self.script()):
            argv, checker = self._build(rng, i, kind, m, extra)
            yield Op(f"{kind}-m{m}" if kind != "verify" else f"verify-{extra}",
                     functools.partial(self._run, argv, i), checker)

    def _build(self, rng, i, kind, m, extra):
        def sym(tag):
            a = oracle.random_symmetric(rng, m, rng.uniform(*NORM_RANGE))
            return a, self._write(a, f"{i}-{tag}", "antilinear_symmetric")

        if kind.startswith("pair"):
            (a, x), (b, y) = sym("x"), sym("y")
            method = kind.split("-")[1]
            argv = ["pair", "--x", x, "--y", y, "--method", method]
            eigs = oracle.pairing_spectrum(a, b)
            if method == "closed":
                return argv, functools.partial(_check_closed, oracle.series_truth(eigs).value, "value")
            truth = oracle.abel_truth(eigs) if method == "abel" else oracle.series_truth(eigs)
            return argv + ["--max-degree", str(extra)], functools.partial(_check_series, truth)
        if kind.startswith("norm"):
            a, z = sym("z")
            method = kind.split("-")[1]
            truth = oracle.series_truth(oracle.pairing_spectrum(a, a))
            argv = ["norm", "--z", z, "--method", method]
            if method == "closed":
                return argv, functools.partial(_check_closed, truth.value, "norm_sq")
            return argv + ["--max-degree", str(extra)], functools.partial(_check_series, truth)
        if kind == "takagi":
            a, z = sym("z")
            return ["takagi", "--z", z], functools.partial(_check_takagi, a)
        if kind == "detsqrt":
            g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            # Hermitian part I + (g + g^H)/2 * c stays positive definite
            t = np.eye(m) + g * (0.8 / np.linalg.norm(g, 2))
            known = complex(np.prod(np.sqrt(np.linalg.eigvals(t).astype(complex))))
            path = self._write(t, f"{i}-t", "general")
            return ["detsqrt", "--matrix", path], functools.partial(_check_closed, known, "value")
        if kind == "verify":
            return (["verify", "--suite", extra, "--seed", str(int(rng.integers(0, 10_000)))],
                    _check_verify)
        if kind == "demo-divergence":
            return ["demo", "divergence", "--dim", str(m)], functools.partial(_check_demo, m)
        raise ValueError(kind)

