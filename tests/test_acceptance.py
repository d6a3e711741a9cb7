"""Acceptance gate: every headline result checked at its stated tolerance.

Each test prints exactly one line, `criterion N PASS|FAIL: detail`, so a run
with -s (or the captured output of a failure) reads as a checklist.
"""

import math
import time

import numpy as np

import fockpair as fp
from fockpair import suites
from fockpair.algebra import basis_size
from fockpair.suites import random_element


def report(num, ok, detail):
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_gaussian_norm_series_vs_closed():
    t0 = time.perf_counter()
    worst = suites.worst(suites.norm_sq_series_vs_closed, np.random.default_rng(101), 50)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(1, ok, f"50 norms, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_scaled_pairing_vs_closed():
    worst = suites.worst(suites.scaled_pairing_vs_closed, np.random.default_rng(102), 50)
    report(2, worst <= 1e-8, f"50 pairs at t=0.9, worst rel err {worst:.2e}")


def test_criterion_3_boundary_abel():
    cfg = fp.RegularizationConfig()
    details = []
    ok = True
    for m in (2, 3):
        want = 2.0 ** (-m / 2.0)
        sx = fp.GaussianSeed.from_map(fp.conjugation(m))
        sy = fp.GaussianSeed.from_matrix(-np.eye(m))
        ex = fp.gaussian_series(sx, cap=cfg.max_degree)
        ey = fp.gaussian_series(sy, cap=cfg.max_degree)
        ser = fp.pairing_1(ex, ey, cfg)
        ab = fp.abel_pairing(ex, ey, cfg)
        closed = fp.pair_closed(sx, sy, 1.0)
        case_ok = (
            ser.verdict == "divergent"
            and ab.converged
            and abs(ab.value - want) <= 1e-4
            and abs(closed - want) <= 1e-12
        )
        ok = ok and case_ok
        abel_err = math.inf if ab.value is None else abs(ab.value - want)
        details.append(f"m={m}: series {ser.verdict}, abel err {abel_err:.1e}")
    report(3, ok, "; ".join(details))


def test_criterion_4_one_dimensional_closed_domain():
    gx = fp.gaussian_series(fp.GaussianSeed.from_matrix([[1.0]]), cap=200)
    gy = fp.gaussian_series(fp.GaussianSeed.from_matrix([[-1.0]]), cap=200)
    rep = fp.pairing_1(gx, gy)
    want = 2.0 ** -0.5  # (1 - conj(a) b)^(-1/2) at a = 1, b = -1
    err = math.inf if rep.value is None else abs(rep.value - want)
    ok = rep.converged and err <= 1e-6
    report(4, ok, f"alternating series verdict {rep.verdict}, err {err:.1e}")


def test_criterion_5_divergence_ratios():
    worst = suites.conjugation_term_ratios(None)
    report(5, worst <= 1e-9, f"d <= 30, m in (1,2,4), worst deviation {worst:.2e}")


def test_criterion_6_noninvariance_demo():
    err = suites.sequence_swap_limits(None)
    report(6, err <= 1e-6, f"both limits converged, worst distance from (0.5, 1.5) {err:.1e}")


def test_criterion_7_oracle_suites():
    rng = np.random.default_rng(107)
    worst_perm = suites.worst(suites.inner_product_vs_permanent, rng, 500)
    worst_cop = suites.worst(suites.coproduct_evaluation_identity, rng, 100)
    worst_tak = suites.worst(suites.takagi_reconstruction, rng, 1000)
    ok = worst_perm <= 1e-10 and worst_cop <= 1e-10 and worst_tak <= 1e-10
    report(
        7,
        ok,
        f"permanent {worst_perm:.1e} (500), coproduct {worst_cop:.1e} (100), "
        f"takagi {worst_tak:.1e} (1000)",
    )


def test_criterion_8_pairing_identity_suites():
    rng = np.random.default_rng(108)
    worst_eval = suites.worst(suites.polynomial_pairing_is_evaluation, rng, 200)

    worst_reb = 0.0  # number-operator rebalancing on truncated series
    powers = suites.REBALANCE_POWERS
    for k in range(200):
        m = int(rng.integers(1, 4))
        phi = random_element(rng, m, 30, rng.uniform(0.3, 0.5))
        psi = random_element(rng, m, 30, rng.uniform(0.3, 0.5))
        base = fp.pairing_1(phi, psi)
        moved = fp.pairing_1(
            fp.number_op_pow(phi, -powers[k % 5]), fp.number_op_pow(psi, powers[k % 5])
        )
        assert base.converged and moved.converged
        worst_reb = max(worst_reb, abs(moved.value - base.value) / max(1.0, abs(base.value)))

    worst_slack = suites.worst(suites.hoelder_slack_nonnegative, rng, 200)

    worst_inv = 0.0  # degreewise unitary invariance on truncated series
    for _ in range(200):
        # horizon deep enough for the series verdict to settle; dim kept at
        # <= 2 so drawing a unitary block per degree stays cheap
        m = int(rng.integers(1, 3))
        top = 30
        phi = random_element(rng, m, top, 0.4)
        psi = random_element(rng, m, top, 0.4)
        blocks = {d: suites.random_unitary(rng, basis_size(m, d)) for d in range(top + 1)}
        base = fp.pairing_1(phi, psi)
        moved = fp.pairing_1(
            fp.graded_unitary_apply(blocks, phi), fp.graded_unitary_apply(blocks, psi)
        )
        assert base.converged and moved.converged
        worst_inv = max(worst_inv, abs(moved.value - base.value) / max(1.0, abs(base.value)))

    ok = (
        worst_eval <= 1e-12
        and worst_reb <= 1e-12
        and worst_slack <= 1e-12
        and worst_inv <= 1e-12
    )
    report(
        8,
        ok,
        f"evaluation {worst_eval:.1e}, rebalance {worst_reb:.1e}, "
        f"slack deficit {worst_slack:.1e}, invariance {worst_inv:.1e} (200 each)",
    )


def test_criterion_9_det_sqrt_branch():
    rng = np.random.default_rng(109)
    worst_sq = suites.worst(suites.det_sqrt_square_identity, rng, 200)
    worst_seg = suites.worst(suites.det_sqrt_segment_continuity, rng, 200)
    ok = worst_sq <= 1e-10 and worst_seg <= 1e-8
    report(9, ok, f"square {worst_sq:.1e}, continuation within arg jump 0.5 {worst_seg:.1e} (200 each)")
