"""Degreewise pairings: exact series, t-scaling, Abel limits, invariances."""

import gc
import json
import math
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

import fockpair as fp
from fockpair import pairing, suites
from fockpair.cli import main
from fockpair.algebra import basis_size, symmetric_power_matrix
from fockpair.pairing import degree_terms, wynn_epsilon
from fockpair.suites import random_element


# ---------------------------------------------------------------- series


def test_pairing_1_polynomial_is_evaluation():
    # exact and converged in either slot; the second slot gives the conjugate
    assert suites.worst(suites.polynomial_pairing_is_evaluation, np.random.default_rng(31), 30) <= 1e-12


def test_pairing_1_sesquilinear_and_symmetric():
    rng = np.random.default_rng(33)
    m = 2
    p1, p2, q = (random_element(rng, m, 5, truncated=False) for _ in range(3))
    a, b = 0.7 - 0.2j, -1.1 + 0.4j
    combo = fp.add(fp.scale(p1, a), fp.scale(p2, b))
    lhs = fp.pairing_1(combo, q).value
    rhs = np.conj(a) * fp.pairing_1(p1, q).value + np.conj(b) * fp.pairing_1(p2, q).value
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    flip = fp.pairing_1(q, combo).value
    assert abs(np.conj(flip) - lhs) <= 1e-12 * max(1.0, abs(lhs))


def test_vacuum_pairings():
    vac = fp.vacuum(3)
    assert fp.pairing_1(vac, vac).value == pytest.approx(1.0)
    for t in (0.1, 0.5, 0.9):
        assert fp.pairing_t(vac, vac, t).value == pytest.approx(1.0)


def test_pairing_t_parameter_validation():
    vac = fp.vacuum(1)
    for t in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            fp.pairing_t(vac, vac, t)


def test_degree_terms_horizon_guard():
    rng = np.random.default_rng(35)
    tall = random_element(rng, 2, 12, truncated=False)
    short = random_element(rng, 2, 6, 0.5)
    with pytest.raises(fp.InsufficientHorizon):
        degree_terms(tall, short)
    with pytest.raises(fp.InsufficientHorizon):
        fp.hoelder_pairing_check(tall, short, 2.0, 2.0)


def test_degree_terms_rejects_negative_max_degree():
    phi = random_element(np.random.default_rng(36), 2, 4, truncated=False)
    with pytest.raises(ValueError, match="max_degree must be >= 0, got -2"):
        degree_terms(phi, phi, -2)
    terms, finite = degree_terms(phi, phi, 0)
    assert finite and len(terms) == 1 and terms[0] == pytest.approx(abs(phi.component(0)[0]) ** 2, rel=1e-15)


def test_hoelder_norm_rejects_negative_truncation():
    phi = random_element(np.random.default_rng(37), 2, 4, truncated=False)
    with pytest.raises(ValueError, match="truncation must be >= 0, got -3"):
        fp.hoelder_norm(phi, 2.0, -3)
    got = fp.hoelder_norm(phi, 2.0, 0)
    assert got.truncation_degree == 0 and got.value == pytest.approx(abs(phi.component(0)[0]), rel=1e-15)


def _complex(re, im):
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def test_dim1_term_pass_equals_vdot_bits():
    # one pass over the real and imaginary planes gives np.vdot of every
    # degree bit for bit: signed zeros, subnormals, overflowing products,
    # inf and NaN included
    rng = np.random.default_rng(83)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1.0, -1.5, 1e160, -1e200, 1e308,
                math.inf, -math.inf, math.nan]
    n = 4000

    def plane():
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-200, 200, n)
        return np.where(rng.random(n) < 0.4, rng.choice(specials, n), wide)

    x, y = _complex(plane(), plane()), _complex(plane(), plane())
    phi, psi = fp.sequence_element(x), fp.sequence_element(y)
    # stored degrees that differ, so the pass reads gathered coefficients
    gappy = fp.GradedElement(1, {d: y[d] for d in range(0, n - 7, 3)}, n - 1, truncated=True)
    for a, b in ((phi, psi), (psi, phi), (phi, phi), (psi, psi), (phi, gappy), (gappy, phi)):
        got, _ = degree_terms(a, b)
        want = np.zeros(len(got), dtype=complex)
        for d in sorted(set(a.degrees()) & set(b.degrees())):
            if d < len(got):
                want[d] = np.vdot(a.component(d), b.component(d))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if a is b:  # a self-pairing is exactly real: +0.0 wherever it is finite
            finite = np.isfinite(got)
            assert not np.signbit(got.imag[finite]).any() and not got.imag[finite].any()


def test_sequence_element_rejects_an_empty_sequence():
    for empty in ([], np.zeros(0), np.zeros((2, 0))):
        with pytest.raises(ValueError, match="at least one value"):
            fp.sequence_element(empty)
    one = fp.sequence_element([2.0])
    assert (one.max_degree, one.truncated, one.degrees()) == (0, True, [0])


def test_sequence_elements_hold_one_buffer_each():
    # 100 elements of horizon 200 hold 100 x 201 coefficients and one shared
    # layout: about 0.33 MB, where per-degree arrays took 3.5 MB
    values = np.linspace(0.0, 1.0, 201)
    tracemalloc.start()
    try:
        held = [fp.sequence_element(values) for _ in range(100)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 100 and peak < 1_000_000


# ---------------------------------------------------------------- rebalance / hoelder


def test_number_operator_rebalance():
    assert suites.worst(suites.number_operator_rebalance, np.random.default_rng(37), 40) <= 1e-12


def test_number_op_pow_degree_action():
    rng = np.random.default_rng(39)
    phi = random_element(rng, 2, 4, truncated=False)
    out = fp.number_op_pow(phi, 1.5)
    assert np.allclose(out.component(0), phi.component(0))  # degree zero is fixed
    for d in range(1, 5):
        assert np.allclose(out.component(d), d**1.5 * phi.component(d))


def test_hoelder_slack_nonnegative():
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        phi = random_element(rng, m, 6, truncated=False)
        psi = random_element(rng, m, 6, truncated=False)
        for p, q in suites.HOELDER_EXPONENTS:
            chk = fp.hoelder_pairing_check(phi, psi, p, q)
            assert chk.slack >= -1e-12
            assert chk.sum_abs >= abs(fp.pairing_1(phi, psi).value) - 1e-10


def test_hoelder_check_rejects_nonconjugate():
    vac = fp.vacuum(1)
    with pytest.raises(ValueError):
        fp.hoelder_pairing_check(vac, vac, 2.0, 3.0)
    # NaN exponents fail both guards
    with pytest.raises(ValueError, match="not conjugate"):
        fp.hoelder_pairing_check(vac, vac, math.nan, math.nan)
    with pytest.raises(ValueError, match="p must be"):
        fp.hoelder_norm(vac, math.nan)


def test_hoelder_norm_values():
    vac = fp.vacuum(2)
    for p in (1.0, 2.0, math.inf):
        assert fp.hoelder_norm(vac, p).value == pytest.approx(1.0)
    rng = np.random.default_rng(43)
    phi = random_element(rng, 2, 5, truncated=False)
    fock = math.sqrt(sum(float(np.vdot(phi.component(d), phi.component(d)).real) for d in range(6)))
    assert fp.hoelder_norm(phi, 2.0).value == pytest.approx(fock, rel=1e-12)
    # dim-one Gaussian: squared 2-norm is the central-binomial series
    a = 0.55
    g = fp.gaussian_series(fp.GaussianSeed.from_matrix([[a]]), cap=80)
    got = fp.hoelder_norm(g, 2.0).value ** 2
    want = sum(math.comb(2 * d, d) * (a / 2.0) ** (2 * d) for d in range(41))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- graded unitaries


def test_graded_unitary_invariance():
    rng = np.random.default_rng(45)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        top = 5
        phi = random_element(rng, m, top, truncated=False)
        psi = random_element(rng, m, top, truncated=False)
        blocks = {d: suites.random_unitary(rng, basis_size(m, d)) for d in range(top + 1)}
        base = fp.pairing_1(phi, psi).value
        moved = fp.pairing_1(
            fp.graded_unitary_apply(blocks, phi), fp.graded_unitary_apply(blocks, psi)
        ).value
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


def test_functorial_lift_invariance():
    rng = np.random.default_rng(47)
    m, top = 3, 5
    u = suites.random_unitary(rng, m)
    blocks = {d: symmetric_power_matrix(u, d) for d in range(top + 1)}
    phi = random_element(rng, m, top, truncated=False)
    psi = random_element(rng, m, top, truncated=False)
    base = fp.pairing_1(phi, psi).value
    moved = fp.pairing_1(
        fp.graded_unitary_apply(blocks, phi), fp.graded_unitary_apply(blocks, psi)
    ).value
    assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


def test_graded_unitary_apply_errors():
    rng = np.random.default_rng(49)
    phi = random_element(rng, 2, 3, truncated=False)
    good = {d: np.eye(basis_size(2, d)) for d in range(4)}
    missing = {d: good[d] for d in (0, 1, 3)}
    with pytest.raises(ValueError):
        fp.graded_unitary_apply(missing, phi)
    crooked = dict(good)
    crooked[2] = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        fp.graded_unitary_apply(crooked, phi)
    shrunk = dict(good)
    shrunk[3] = np.eye(2)
    with pytest.raises(fp.DimensionMismatch):
        fp.graded_unitary_apply(shrunk, phi)
    # a NaN or inf entry makes the unitarity gap NaN, which must not pass
    for d, bad in ((0, [[np.nan]]), (1, [[np.inf, 0.0], [0.0, 1.0]])):
        with pytest.raises(ValueError):
            fp.graded_unitary_apply(good | {d: np.array(bad)}, phi)


# ---------------------------------------------------------------- abel


def test_abel_consistent_with_convergent_series():
    # both converge and agree within 10 * tolerance
    assert suites.worst(suites.abel_consistent_with_series, np.random.default_rng(51), 10) <= 1.0


def test_pringsheim_directions():
    # 0.5^n: both converge to 4/3; ones: both divergent
    assert suites.pringsheim_self_pairing(None) == 0.0


def test_sequence_demo_limits_and_midpoint():
    assert suites.sequence_swap_limits(None) <= 1e-6
    assert suites.sequence_mid_t_value(None) <= 1e-10
    cfg = fp.RegularizationConfig()
    n = cfg.max_degree - (cfg.max_degree % 2)
    lam = np.ones(n + 1)
    mu = np.array([(-1.0) ** d for d in range(n + 1)])
    mid2 = fp.pairing_t(
        fp.sequence_element(fp.pair_swap(lam)),
        fp.sequence_element(fp.pair_swap(mu)),
        0.5,
        cfg,
    )
    assert mid2.value == pytest.approx(1.2, abs=1e-10)


def test_pair_swap_structure():
    vals = np.arange(7.0)
    out = fp.pair_swap(vals)
    assert list(out.real) == [0.0, 2.0, 1.0, 4.0, 3.0, 6.0, 5.0]
    assert np.allclose(fp.pair_swap(out), vals)  # involution on even horizon


def test_wynn_epsilon_rejects_bad_lengths():
    sums = np.cumsum(np.ones(5))
    for prefixes in ([6], [-1], [5, 6], [2.0], [np.float64(3.0)]):
        with pytest.raises(ValueError):
            wynn_epsilon(sums, prefixes)
    # one sequence only: neither a block of rows nor a scalar
    for bad in (np.cumsum(np.ones((2, 5)), axis=1), 3.0):
        for prefixes in (None, [1]):
            with pytest.raises(ValueError):
                wynn_epsilon(bad, prefixes)


def _boundary_terms(k: int, n: int) -> np.ndarray:
    """Degree terms of prod (1 + s)^(-1/2) over k factors, term of s^j at degree 2j."""
    j = np.arange(1, (n + 1) // 2)
    factor = np.concatenate(([1.0], np.cumprod(-(2.0 * j - 1.0) / (2.0 * j))))
    coeffs = factor
    for _ in range(k - 1):
        coeffs = np.convolve(coeffs, factor)[: len(factor)]
    out = np.zeros(n)
    out[::2] = coeffs
    return out


def test_abel_growth_toward_one_is_divergent():
    # sum_d t^(2d) = 1 / (1 - t^2) has a pole at t = 1, at every horizon
    for horizon in (20, 200, 400):
        cfg = fp.RegularizationConfig(max_degree=horizon)
        ones = fp.sequence_element(np.ones(horizon + 1))
        got = fp.abel_pairing(ones, ones, cfg)
        assert (got.verdict, got.rule, got.value) == ("divergent", "pole", None)
        # terms growing like 1.05^d: the radius is below one
        got = fp.abel_pairing(ones, fp.sequence_element(1.05 ** np.arange(horizon + 1)), cfg)
        assert (got.verdict, got.rule, got.value) == ("divergent", "radius_below_one", None)
    # terms of two phases, 1 + 0.5i (-1)^d, have the scaled sums
    # 1 / (1 - t^2) + i / (2 + 2t^2), which grow without bound toward t = 1.
    # Their magnitudes are flat, so the radius rule does not fire, and two
    # phases are no pole: no route decides, at any horizon
    for horizon in (200, 60000):
        cfg = fp.RegularizationConfig(max_degree=horizon)
        n = cfg.max_degree + 1
        jitter = fp.sequence_element(1.0 + 0.5j * (-1.0) ** np.arange(n))
        got = fp.abel_pairing(fp.sequence_element(np.ones(n)), jitter, cfg)
        assert (got.verdict, got.rule, got.value) == ("undecided", "terms_not_shrinking", None), horizon
    # the same two phases growing like 1.05^d: no pole, and the radius rule
    # needs a fit of 10 terms, the second half of 19
    for horizon, rule in ((16, "terms_not_shrinking"), (17, "terms_not_shrinking"), (18, "radius_below_one"),
                          (19, "radius_below_one")):
        cfg = fp.RegularizationConfig(max_degree=horizon)
        d = np.arange(horizon + 1)
        rising = fp.sequence_element(1.05**d * (1.0 + 0.5j * (-1.0) ** d))
        got = fp.abel_pairing(fp.sequence_element(np.ones(horizon + 1)), rising, cfg)
        assert (got.verdict == "divergent", got.rule) == (rule == "radius_below_one", rule), horizon


def test_abel_slow_decay_is_no_pole():
    # terms of one phase that decay slowly: the series converges, and the
    # Abel limit is its sum; the terms may still rise, or fall by less than
    # rule (a) sees, within the horizon.  sum (d+1) r^d = 1 / (1 - r)^2 and
    # sum r^d (1 + 1/(d+1)) = 1 / (1 - r) - log(1 - r) / r
    for horizon in (20, 40, 100, 150, 200, 400):
        cfg = fp.RegularizationConfig(max_degree=horizon)
        d = np.arange(horizon + 1)
        ones = fp.sequence_element(np.ones(horizon + 1))
        known = {
            "(d+1) 0.995^d": ((d + 1) * 0.995**d, 1.0 / 0.005**2),
            "(d+1) 0.999^d": ((d + 1) * 0.999**d, 1.0 / 0.001**2),
            "0.999^d (1 + 1/(d+1))": (0.999**d * (1.0 + 1.0 / (d + 1)), 1.0 / 0.001 - math.log(0.001) / 0.999),
        }
        for name, (seq, want) in known.items():
            got = fp.abel_pairing(ones, fp.sequence_element(seq), cfg)
            assert got.verdict != "divergent", (name, horizon, got.rule)
            if got.verdict == "converged":
                assert abs(got.value - want) <= cfg.tolerance * max(1.0, abs(want)), (name, horizon)
    # flat terms that turn to a geometric decay past the first _EPS_TERMS
    # nonzero terms: the pole test reads all of them, not the epsilon window
    cfg = fp.RegularizationConfig(max_degree=400)
    d = np.arange(401)
    turn = fp.sequence_element(np.where(d <= 300, 1.0, 0.9 ** (d - 300.0)))
    got = fp.abel_pairing(fp.sequence_element(np.ones(401)), turn, cfg)
    assert got.verdict != "divergent", got.rule


def test_epsilon_reads_the_last_window():
    # 0.9^d below degree 220, then 1e-5 (-1)^d / sqrt(d + 1) to degree 400:
    # the terms past the first _EPS_TERMS nonzero ones move the sum by 3.4e-7.
    # With n = d + 1 the tail is 1e-5 (eta(1/2) - sum_{n <= 220} (-1)^(n-1) / sqrt(n)),
    # and eta(1/2) = (1 - sqrt 2) zeta(1/2)
    cfg = fp.RegularizationConfig(max_degree=400)
    d = np.arange(401)
    n = np.arange(1, 221)
    eta_half = 0.6048986434216303
    want = math.fsum(0.9 ** np.arange(220)) + 1e-5 * (eta_half - math.fsum((-1.0) ** (n - 1) / np.sqrt(n)))
    seq = fp.sequence_element(np.where(d < 220, 0.9**d, 1e-5 * (-1.0) ** d / np.sqrt(d + 1)))
    ones = fp.sequence_element(np.ones(401))
    # the terms of the last window fall by less than rule (a) asks: no sum
    plain = fp.pairing_1(ones, seq, cfg)
    assert (plain.verdict, plain.rule, plain.value) == ("undecided", "terms_not_shrinking", None)
    # the continuation reads the partial sums of all 401 terms
    abel = fp.abel_pairing(ones, seq, cfg)
    assert (abel.verdict, abel.rule) == ("converged", "continuation")
    assert abs(abel.value - want) <= cfg.tolerance, abel.value


# ---------------------------------------------------------------- plumbing


def test_wynn_epsilon_on_known_limits():
    sums = np.cumsum(0.5 ** np.arange(30))
    val, resid = wynn_epsilon(sums)
    assert abs(val - 2.0) <= 1e-10
    assert resid <= 1e-10
    const = np.full(12, 3.25)
    val, resid = wynn_epsilon(const)
    assert val == pytest.approx(3.25)
    assert resid == 0.0
    # alternating zeta-style partial sums: accelerated far beyond truncation
    sums = np.cumsum([(-1.0) ** k / (k + 1.0) for k in range(40)])
    val, _ = wynn_epsilon(sums)
    assert abs(val - math.log(2.0)) <= 1e-10


def test_closed_form_fits_match_lapack():
    # the radius fit and the divergence rule's intercept solve their normal
    # equations in closed form; numpy's LAPACK least squares is the reference
    rng = np.random.default_rng(77)
    for horizon in (20, 41, 120, 400, 4000):
        d = np.arange(horizon + 1)
        families = [(d + 1.0) * 0.995**d, 1.05**d * (1.0 + 0.5j * (-1.0) ** d),
                    rng.uniform(0.5, 1.5, horizon + 1) * np.exp(0.02 * d), np.exp(np.sqrt(d)) * 0.999**d,
                    np.where(d % 2 == 0, rng.standard_normal(horizon + 1), 0.0)]
        for k, seq in enumerate(families):
            terms = np.asarray(seq, dtype=complex)
            nz = terms.nonzero()[0]
            fit = nz[len(nz) // 2:]
            beta, se = pairing._log_growth(terms, fit)
            design = np.column_stack([np.ones(len(fit)), fit, np.log1p(fit)])
            y = np.log(np.abs(terms[fit]))
            coef = np.linalg.lstsq(design, y, rcond=None)[0]
            r_inv = np.linalg.inv(np.linalg.qr(design, mode="r"))
            want_se = math.sqrt(float(np.sum((y - design @ coef) ** 2)) / (len(fit) - 3) * float(r_inv[1] @ r_inv[1]))
            assert abs(beta - coef[1]) <= 1e-10, (horizon, k)
            assert abs(se - want_se) <= 1e-6 * want_se + 1e-12, (horizon, k)
    # too few terms for a fit, or a magnitude that is not finite
    for terms, fit in ((np.ones(5, dtype=complex), np.arange(2)), (np.array([1.0, np.inf, 2.0, 3.0]) + 0j, np.arange(4))):
        assert all(math.isnan(v) for v in pairing._log_growth(terms, fit))
    # three terms fit exactly: no degree of freedom is left for an error
    beta, se = pairing._log_growth(np.array([1.0, 2.0, 5.0]) + 0j, np.arange(3))
    assert math.isfinite(beta) and math.isnan(se)
    for _ in range(200):
        pos = np.sort(rng.choice(np.arange(1, 400), size=int(rng.integers(2, 40)), replace=False))
        ratios = 1.0 + rng.standard_normal(len(pos)) * 10.0 ** rng.uniform(-12, -1)
        want = np.polyfit(1.0 / pos, ratios, 1)[1]
        assert abs(pairing._intercept(1.0 / pos, ratios) - want) <= 1e-12 * max(1.0, abs(want))
    # an infinite ratio, as when the last term overflows: no line, as np.polyfit gives
    ratios[-1] = np.inf
    assert math.isnan(pairing._intercept(1.0 / pos, ratios)) and np.isnan(np.polyfit(1.0 / pos, ratios, 1)[1])


def _scalar_wynn(sums):
    """Reference epsilon tableau: one scalar recurrence per entry."""
    s = [complex(x) for x in sums]
    n = len(s)
    if n == 0:
        return 0j, math.inf
    if n == 1:
        return s[0], math.inf
    huge = 1e300
    prev2 = [0j] * (n + 1)
    # the recurrence starts from the sums + 0j, the candidates from the sums
    prev = [x + 0j for x in s]
    cands = [(s[-1], abs(s[-1] - s[-2]))]
    col = 0
    while len(prev) >= 2:
        col += 1
        cur = []
        for j in range(len(prev) - 1):
            d = prev[j + 1] - prev[j]
            if d == 0 or not np.isfinite(d):
                cur.append(complex(huge))
            else:
                cur.append(prev2[j + 1] + 1.0 / d)
        if col % 2 == 0 and cur:
            v = cur[-1]
            if np.isfinite(v) and abs(v) < huge / 10:
                if len(cur) >= 2 and np.isfinite(cur[-2]) and abs(cur[-2]) < huge / 10:
                    r = abs(cur[-1] - cur[-2])
                else:
                    r = abs(v - cands[-1][0])
                cands.append((v, r))
        prev2, prev = prev, cur
    return min(cands, key=lambda c: c[1])


def _same_bits(a, b) -> bool:
    """Equal including the sign of zero; any NaN matches any NaN."""
    a, b = complex(a), complex(b)
    return all(
        (math.isnan(x) and math.isnan(y)) or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
        for x, y in ((a.real, b.real), (a.imag, b.imag))
    )


def _fuzz_sums(rng, i, longest=48):
    """Partial sums of one of twelve families, edge cases included."""
    n = int(rng.integers(0, longest))
    k = np.arange(n)
    family = i % 12
    if family == 11:
        # sums, not terms: cumsum leaves no -0 part after a nonzero one.
        # Signed zeros in both parts (-0 mostly), and parts shared between
        # sums, so that some differences are purely real or purely imaginary
        parts = np.array([0.0, -0.0, -0.0, -0.0, 1.0, -1.0])
        sums = np.empty(n, dtype=complex)
        sums.real, sums.imag = rng.choice(parts, size=n), rng.choice(parts, size=n)
        return sums
    if family == 0:
        terms = rng.standard_normal(n) * 0.6**k
    elif family == 1:
        terms = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (-0.9) ** k
    elif family == 2:  # zero differences: repeated partial sums
        terms = np.where(rng.random(n) < 0.4, 0.0, rng.standard_normal(n))
    elif family == 3:  # signed zeros and exact small values
        terms = rng.choice(np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1j, -1j, complex(-0.0, 1.0)]), size=n)
    elif family == 4:
        terms = rng.standard_normal(n) * 10.0 ** rng.choice([-300, 0, 300], size=n)
    elif family == 5:
        terms = rng.choice(np.array([1e300, -1e300, np.inf, -np.inf, np.nan, 1.0, 0.0,
                                     complex(np.nan, 1.0), complex(1.0, np.inf)]), size=n)
    elif family == 6:  # constant sums
        terms = np.zeros(n)
        terms[:1] = 3.25
    elif family == 7:
        terms = (-1.0) ** k / (k + 1.0)
    elif family == 8:
        terms = rng.standard_normal(n) * 1e-300
    elif family == 9:
        terms = (-1.0) ** k * (k + 1.0)
    else:  # an ordinary sequence with one non-finite partial sum
        terms = rng.standard_normal(n) * 0.5**k
    with np.errstate(all="ignore"):
        sums = np.cumsum(np.asarray(terms, dtype=complex))
    if family == 9 and n:
        sums[rng.integers(0, n)] = sums[0]
    if family == 10 and n:
        sums[rng.integers(0, n)] = rng.choice(np.array([np.inf, -np.inf, complex(1.0, np.inf), np.nan]))
    return sums


def _settling_rows(width):
    """Partial sums whose epsilon table settles early, by name, and one that never settles."""
    n = np.arange(width)
    never = np.cumsum(np.random.default_rng(1956).standard_normal(width) * 0.97**n) + 0j
    rows = {
        "constant": np.full(width, 3.25 + 0j),  # residual 0 at column 0
        "alternating": np.cumsum((-1.0) ** n) + 0j,  # 1/(1+x): column 2
        "alternating_linear": np.cumsum((-1.0) ** n * (n + 1.0)) + 0j,  # 1/(1+x)^2: column 34
    }
    # a NaN residual at column 0, for the full window only
    for name, tail in (("inf_pair", [np.inf, np.inf]), ("nan_last", [1.0, np.nan]),
                       ("inf_part_pair", [complex(np.inf, 1.0), complex(np.inf, 2.0)])):
        rows[name] = never.copy()
        rows[name][-2:] = tail
    rows["never"] = never
    return rows


def _assert_prefixes(sums, prefixes, want, where):
    got = wynn_epsilon(sums, prefixes)
    assert len(got) == len(prefixes), where
    for p, (value, resid) in zip(prefixes, got):
        want_value, want_resid = want(p)
        assert _same_bits(value, want_value) and _same_bits(resid, want_resid), (where, p)


def test_wynn_epsilon_matches_scalar_tableau():
    # the whole sequence, and several prefixes of it read off one tableau,
    # each against the reference recurrence; one round in 15 is long (up to
    # 129 sums)
    rng = np.random.default_rng(1956)
    checked = 0
    for i in range(1200):
        # the family is i % 12, so the choices below read the round i // 12,
        # which gives every family long sequences and prefix sets alike
        rnd = i // 12
        sums = _fuzz_sums(rng, i, 130 if rnd % 15 == 5 else 48)
        kept = sums.copy()
        want = _scalar_wynn(sums)
        value, resid = wynn_epsilon(sums)
        assert _same_bits(value, want[0]) and _same_bits(resid, want[1]), (i, sums)
        _assert_prefixes(sums, [len(sums)], lambda p: want, i)
        assert np.array_equal(sums.view(np.int64), kept.view(np.int64))
        checked += 1
        if rnd % 3:
            continue
        # prefixes of 1 to 7 lengths, each equal to its own scalar call
        for seq in (sums, sums[::-1], sums[::2]):
            n = len(seq)
            prefixes = sorted({0, 1, 2, 3, n // 2, 3 * n // 4, n} & set(range(n + 1)))
            _assert_prefixes(seq, prefixes, lambda p: _scalar_wynn(seq[:p]), i)
    assert checked >= 1000

    # tableaux that stop early, against the full-width reference on every prefix
    for name, sums in _settling_rows(96).items():
        _assert_prefixes(sums, [0, 1, 2, 3, 48, 72, 96], lambda p: _scalar_wynn(sums[:p]), name)

    # parts near 1.3e308 keep every difference finite, but |d| overflows:
    # CPython's abs raises there (so _scalar_wynn cannot serve as reference),
    # and the tableau reads the modulus as infinite, as np.hypot does
    big = 1.3e308
    rows = [
        [0, complex(big, big), 0.5, complex(-big, big), 1.0, complex(big, -big), 0.25, 0.0],
        [complex(big, 0), complex(0, big), complex(big, 0), complex(0, big), complex(big, 0), complex(0, big), 1.0, 2.0],
    ]
    with pytest.raises(OverflowError):
        abs(complex(rows[0][1] - rows[0][0]))
    for row, prefixes in zip(rows, ([8, 6, 2, 1], [8, 5, 3, 0])):
        assert all(math.isinf(resid) for _, resid in wynn_epsilon(row, prefixes)[1:]), row


def test_epsilon_tables_stop_once_every_prefix_settles(monkeypatch):
    # columns past column 0 that the tableau builds: it calls zip once per column
    built = [0]

    def spy(*args):
        built[0] += 1
        return zip(*args)

    monkeypatch.setattr(pairing, "zip", spy, raising=False)

    def columns(row):
        built[0] = 0
        wynn_epsilon(row, [200, 150])
        return built[0]

    pool = _settling_rows(200)
    assert columns(pool["alternating_linear"]) == 34
    assert columns(pool["alternating"]) == 2
    assert columns(pool["constant"]) == 0
    # the full window settles at column 0 (a NaN residual), the 3/4 window
    # never: the tableau ends at the last even column that window reads
    assert columns(pool["inf_pair"]) == 148
    # a row that never settles is built up to its last even column
    assert columns(pool["never"]) == 198


def test_regularization_config_validation(tmp_path, capsys):
    for tol in (0.0, -1e-8, math.inf, math.nan):
        with pytest.raises(ValueError, match="tolerance"):
            fp.RegularizationConfig(tolerance=tol)
    for degree in (-1, 20.5, 20.0, "20", True, np.bool_(True)):
        with pytest.raises(ValueError, match="max_degree"):
            fp.RegularizationConfig(max_degree=degree)
    # a bool would pass as 1 in either field
    for tol in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="tolerance"):
            fp.RegularizationConfig(tolerance=tol)
    assert fp.RegularizationConfig(max_degree=0).max_degree == 0
    assert fp.RegularizationConfig(max_degree=np.int64(20)).max_degree == 20
    # sum_n (-1)^n (n + 1) diverges; an infinite tolerance would let epsilon
    # certify its antilimit
    n = np.arange(201)
    rep = fp.pairing_1(fp.sequence_element(np.ones(201)), fp.sequence_element((-1.0) ** n * (n + 1)))
    assert rep.verdict == "divergent"
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"dim": 1, "role": "antilinear_symmetric", "entries": [[{"re": 0.6, "im": 0.0}]]}))
    for tol in ("inf", "nan"):
        code = main(["pair", "--x", str(path), "--y", str(path), "--method", "series", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out and "tolerance" in captured.err


def test_report_fields_round_out():
    vac = fp.vacuum(2)
    rep = fp.pairing_1(vac, vac)
    assert rep.method == "series_1"
    rep_t = fp.pairing_t(vac, vac, 0.5)
    assert rep_t.method == "scaled_t"
    cfg = fp.RegularizationConfig()
    n = cfg.max_degree + 1
    d = np.arange(n)
    ones = fp.sequence_element(np.ones(n))
    # known Abel limits: a convergent series gives its sum, sum (-1)^d gives
    # 1/2, and the boundary pairing prod (1 + s)^(-k/2) gives its closed form
    # 2^(-k/2) at s = 1; a converged route's residual is its tail
    known = {
        "convergent": (0.5**d, 2.0, "plain_sum"),
        "alt": ((-1.0) ** d, 0.5, "continuation"),
        "boundary1": (_boundary_terms(1, n), 2.0**-0.5, "plain_sum"),
        "boundary2": (_boundary_terms(2, n), 0.5, "continuation"),
        "boundary4": (_boundary_terms(4, n), 0.25, "continuation"),
    }
    for name, (seq, want, rule) in known.items():
        rep_a = fp.abel_pairing(ones, fp.sequence_element(seq), cfg)
        assert (rep_a.method, rep_a.verdict, rep_a.rule) == ("abel", "converged", rule), name
        assert abs(rep_a.value - want) <= cfg.tolerance, name
        assert 0.0 <= rep_a.extrapolation_residual == rep_a.tail_estimate <= cfg.tolerance, name
    # bounded random terms, and ones that end in a term that is not finite,
    # which has no phase for the pole test: no route decides, nothing warns,
    # and the report has no residual
    rng = np.random.default_rng(2)
    for seq in [rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)] + [
            np.r_[np.ones(n - 1), last] for last in (math.inf, math.nan, complex(1.0, math.inf))]:
        rep_a = fp.abel_pairing(ones, fp.sequence_element(seq), cfg)
        assert (rep_a.verdict, rep_a.rule, rep_a.value) == ("undecided", "terms_not_shrinking", None), seq[-1]
        assert math.isnan(rep_a.extrapolation_residual)


# ---------------------------------------------------------------- the last pair


def _memo_pairs():
    """(phi, psi, cfg, t) covering the plain and Abel rules, a polynomial and a Gaussian pair."""
    cfg = fp.RegularizationConfig()
    n = cfg.max_degree + 1
    d = np.arange(n)
    ones = fp.sequence_element(np.ones(n))
    rng = np.random.default_rng(5)
    seqs = [0.5**d, (-1.0) ** d, (-1.0) ** d * (d + 1), np.ones(n), 1.05**d, (d + 1) * 0.999**d,
            rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n), 1.0 + 0.5j * (-1.0) ** d, d[:7] * 0.3]
    pairs = [(ones, fp.sequence_element(s), cfg, 0.7) for s in seqs]
    poly = random_element(rng, 2, 5, truncated=False)
    pairs.append((poly, random_element(rng, 2, 5, truncated=False), cfg, 0.4))
    g = fp.gaussian_series(fp.GaussianSeed.from_matrix(np.diag([0.5, 0.3])), cap=40)
    h = fp.gaussian_series(fp.GaussianSeed.from_matrix(np.array([[0.2, 0.4j], [0.4j, -0.3]])), cap=40)
    pairs += [(g, g, cfg, 0.9), (g, h, fp.RegularizationConfig(max_degree=30, tolerance=1e-6), 0.9)]
    return pairs


def _cold(fn, *args):
    pairing._last_pair = None
    return fn(*args)


def test_pairings_of_one_pair_build_its_terms_once(monkeypatch):
    terms_of, series = pairing.degree_terms, pairing._series
    calls, plain_passes = [], []
    monkeypatch.setattr(pairing, "degree_terms", lambda *args: calls.append(args) or terms_of(*args))
    monkeypatch.setattr(pairing, "_series", lambda terms, finite, cfg, t=None:
                        (t is None and plain_passes.append(cfg)) or series(terms, finite, cfg, t))
    monkeypatch.setattr(pairing, "_last_pair", None)
    cfg = fp.RegularizationConfig(max_degree=60)
    n = np.arange(61)
    phi, psi = fp.sequence_element(np.ones(61)), fp.sequence_element((-1.0) ** n)

    def all_three(a, b, c):
        fp.pairing_1(a, b, c)
        fp.pairing_t(a, b, 0.5, c)
        fp.abel_pairing(a, b, c)

    all_three(phi, psi, cfg)
    assert (len(calls), len(plain_passes)) == (1, 1)
    # an equal config is the same key
    all_three(phi, psi, fp.RegularizationConfig(max_degree=60))
    assert (len(calls), len(plain_passes)) == (1, 1)
    other = fp.sequence_element(0.5**n)
    twin = fp.sequence_element(np.ones(61))
    assert twin == phi and twin is not phi
    misses = [(phi, other, cfg), (phi, other, fp.RegularizationConfig(max_degree=50)),
              (phi, other, fp.RegularizationConfig(max_degree=50, tolerance=1e-6)), (twin, other, cfg)]
    for k, (a, b, c) in enumerate(misses, start=2):
        fp.pairing_t(a, b, 0.5, c)
        assert (len(calls), len(plain_passes)) == (k, k - 1), k
        all_three(a, b, c)
        assert (len(calls), len(plain_passes)) == (k, k), k
        assert calls[-1] == (a, b, c.max_degree)


def test_memoized_reports_equal_cold_ones():
    def same(warm, cold):
        return all(repr(getattr(warm, f.name)) == repr(getattr(cold, f.name)) for f in fields(fp.PairingReport))

    for i, (phi, psi, cfg, t) in enumerate(_memo_pairs()):
        pairing._last_pair = None
        warm = [fp.pairing_1(phi, psi, cfg), fp.pairing_t(phi, psi, t, cfg), fp.abel_pairing(phi, psi, cfg),
                fp.pairing_1(phi, psi, cfg)]
        cold = [_cold(fp.pairing_1, phi, psi, cfg), _cold(fp.pairing_t, phi, psi, t, cfg),
                _cold(fp.abel_pairing, phi, psi, cfg), _cold(fp.pairing_1, phi, psi, cfg)]
        assert all(same(w, c) for w, c in zip(warm, cold)), i
        # the Abel pairing first, so that it computes the plain outcome
        pairing._last_pair = None
        assert same(fp.abel_pairing(phi, psi, cfg), cold[2]) and same(fp.pairing_1(phi, psi, cfg), cold[0]), i


def test_last_pair_keeps_no_element_alive():
    n = np.arange(201)
    phi, psi = fp.sequence_element(np.ones(201)), fp.sequence_element((-1.0) ** n)
    fp.abel_pairing(phi, psi)
    refs = weakref.ref(phi), weakref.ref(psi)
    del phi, psi
    gc.collect()
    assert all(ref() is None for ref in refs)
    # a later pair, whatever ids it gets, builds its own terms
    phi, psi = fp.sequence_element(np.ones(201)), fp.sequence_element(0.5**n)
    assert fp.pairing_1(phi, psi).value == _cold(fp.pairing_1, phi, psi).value


def test_last_pair_terms_are_read_only():
    n = np.arange(31)
    phi, psi = fp.sequence_element(np.ones(31)), fp.sequence_element(0.5**n)
    cfg = fp.RegularizationConfig(max_degree=30)
    fp.pairing_1(phi, psi, cfg)
    memo = pairing._last_pair.terms
    assert not memo.flags.writeable
    with pytest.raises(ValueError):
        memo[0] = 1.0
    fresh, _ = degree_terms(phi, psi, cfg.max_degree)
    assert fresh.flags.writeable and not np.shares_memory(fresh, memo)
    assert np.array_equal(fresh.view(np.uint64), memo.view(np.uint64))
    fresh[0] = 7.0
    assert fp.pairing_1(phi, psi, cfg).value == _cold(fp.pairing_1, phi, psi, cfg).value
