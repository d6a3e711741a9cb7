"""The fixed known-answer set of the benchmark's `verdict` workload, judged in-process.

Each input pairs the all-ones sequence with a term sequence whose verdict
and value `perfbench/oracle.py` knows, through pairing_1, pairing_t and
abel_pairing.  Every verdict must be right or `undecided`, and none may
depend on the horizon: doubling it may decide an undecided verdict, but
never turns `converged` into `divergent` or back, and never moves a
converged value by more than the tolerance.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import fockpair as fp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """The workload module, with its siblings oracle and outcome importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("verdict")


def test_verdict_set_has_no_failures(bench):
    workload = bench.Verdict()
    workload.setup()
    ops = workload.ops(1)
    failures = [(op.kind, j.reason) for op in ops for j in op.check(op.call()) if j.status == "failed"]
    assert len(ops) == 400
    assert failures == []


def _reports(bench, scale: int):
    """(plain, scaled, abel) reports of each fixed input, its horizon times `scale`."""
    rng = np.random.default_rng(bench.GRID_SEED)
    out = []
    for lo, hi in bench.HORIZONS:
        for family in bench.FAMILIES:
            for j in range(bench.POINTS):
                horizon = scale * (lo + j * (hi - lo) // (bench.POINTS - 1))
                eigs, stride = bench.spectrum_for(family, rng, j)
                t = bench.draw_t(rng, max(abs(complex(x)) for x in eigs), stride)
                phi = fp.sequence_element(np.ones(horizon + 1))
                psi = fp.sequence_element(bench.terms_at_degrees(family, eigs, stride, horizon))
                cfg = fp.RegularizationConfig(max_degree=horizon)
                out.append((f"{family}@{horizon}", (fp.pairing_1(phi, psi, cfg), fp.pairing_t(phi, psi, t, cfg),
                                                    fp.abel_pairing(phi, psi, cfg))))
    return out


def test_verdicts_do_not_depend_on_the_horizon(bench):
    outcome = importlib.import_module("outcome")
    tol = fp.RegularizationConfig().tolerance
    flips, moved = [], []
    for (name, at_n), (_, at_2n) in zip(_reports(bench, 1), _reports(bench, 2)):
        for a, b in zip(at_n, at_2n):
            if {a.verdict, b.verdict} == {"converged", "divergent"}:
                flips.append((name, a.method, a.verdict, b.verdict))
            elif a.verdict == b.verdict == "converged" and not outcome.within(a.value, b.value, tol):
                moved.append((name, a.method, a.value, b.value))
    assert flips == []
    assert moved == []
