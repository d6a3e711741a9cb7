"""The fixed known-answer set of the benchmark's `verdict` workload, judged in-process.

Each input pairs the all-ones sequence with a term sequence whose verdict
and value `perfbench/oracle.py` knows, through pairing_1, pairing_t and
abel_pairing.  Every verdict must be right or `undecided`, and none may
depend on the horizon: doubling it may decide an undecided verdict, but
never turns `converged` into `divergent` or back, and never moves a
converged value by more than the tolerance.  The Abel pairing decides all
but a few: floors on its correct verdicts, at both horizons, keep it so.

The radius rule of the Abel pairing is also checked on spectra outside the
set, drawn from a seed no workload uses.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import fockpair as fp
from fockpair import pairing

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
    """(name, eigenvalues, (plain, scaled, abel) reports) of each fixed input, its horizon times `scale`."""
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
                out.append((f"{family}@{horizon}", eigs, (fp.pairing_1(phi, psi, cfg), fp.pairing_t(phi, psi, t, cfg),
                                                          fp.abel_pairing(phi, psi, cfg))))
    return out


def test_verdicts_do_not_depend_on_the_horizon(bench):
    outcome = importlib.import_module("outcome")
    tol = fp.RegularizationConfig().tolerance
    flips, moved = [], []
    for (name, _, at_n), (_, _, at_2n) in zip(_reports(bench, 1), _reports(bench, 2)):
        for a, b in zip(at_n, at_2n):
            if {a.verdict, b.verdict} == {"converged", "divergent"}:
                flips.append((name, a.method, a.verdict, b.verdict))
            elif a.verdict == b.verdict == "converged" and not outcome.within(a.value, b.value, tol):
                moved.append((name, a.method, a.value, b.value))
    assert flips == []
    assert moved == []


def test_abel_decides_most_of_the_set(bench):
    outcome, oracle = importlib.import_module("outcome"), importlib.import_module("oracle")
    tol = fp.RegularizationConfig().tolerance
    for scale, floor in ((1, 356), (2, 395)):
        correct = sum(outcome.judge(abel.verdict, abel.value, oracle.abel_truth(eigs), tol).status == outcome.CORRECT
                      for _, eigs, (_, _, abel) in _reports(bench, scale))
        assert correct >= floor, scale


def _held_out(bench, oracle, rng, radii, count=600):
    """Abel reports of `count` random spectra, 1-4 eigenvalues of largest modulus within `radii`.

    Each spectrum is placed at even degrees, as a Gaussian pairing places
    it, at a horizon of 20-60 and at twice that.
    """
    out = []
    for _ in range(count):
        radius, m, horizon = float(rng.uniform(*radii)), int(rng.integers(1, 5)), int(rng.integers(20, 61))
        eigs = oracle.random_spectrum(rng, m, radius)
        for h in (horizon, 2 * horizon):
            terms = bench.terms_at_degrees("near", eigs, 2, h)
            out.append(fp.abel_pairing(fp.sequence_element(np.ones(h + 1)), fp.sequence_element(terms),
                                       fp.RegularizationConfig(max_degree=h)))
    return out


def test_radius_rule_holds_off_the_set(bench):
    oracle = importlib.import_module("oracle")
    rng = np.random.default_rng(424242)
    # radius 0.9-0.999: the Abel limit exists, so nothing may read divergent
    near = _held_out(bench, oracle, rng, (0.9, 0.999))
    assert [(r.truncation_degree, r.rule) for r in near if r.verdict == "divergent"] == []
    # radius 1.05-1.3: the rule decides most calls
    growing = _held_out(bench, oracle, rng, (1.05, 1.3))
    assert sum(r.rule == "radius_below_one" for r in growing) >= 780
    # the two near inputs of the set at horizons 27 and 31 read a fitted
    # rise three standard errors above 0.01 on fits of 7 and 8 points; the
    # 10-point floor, and their falling maxima, keep the rule from firing
    fits = {}
    for name, eigs, (_, _, abel) in _reports(bench, 1):
        if name in ("near@27", "near@31"):
            horizon = int(name.split("@")[1])
            terms = bench.terms_at_degrees("near", eigs, 2, horizon)
            nz = terms.nonzero()[0]
            fit = nz[len(nz) // 2:]
            beta, se = pairing._log_growth(terms, fit)
            assert beta - 3.0 * se > 0.01 and abel.verdict != "divergent", name
            out = pairing._abel_routes(terms, horizon, fp.RegularizationConfig(max_degree=horizon))
            assert out.verdict != "divergent", name
            fits[name] = len(fit)
    assert fits == {"near@27": 7, "near@31": 8}
