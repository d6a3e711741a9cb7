"""Degreewise pairings: exact series, t-scaling, Abel limits, invariances."""

import math

import numpy as np
import pytest

import fockpair as fp
from fockpair import suites
from fockpair.algebra import basis_size, symmetric_power_matrix
from fockpair.pairing import PairingReport, _scaled, _sum_weighted, degree_terms, wynn_epsilon
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
    block = np.cumsum(np.ones((2, 5)), axis=1)
    for lengths in (None, [[5], [6]], [[5], [-1]], [[5, 5]], [[2.0], [3.0]]):
        with pytest.raises(ValueError):
            wynn_epsilon(block, lengths)


def _reference_abel(phi, psi, cfg):
    """Abel pairing one grid point at a time, extrapolated by the scalar tableau."""
    grid = cfg.t_grid()
    values = []
    used = 0
    worst_tail = 0.0
    for t in grid:
        out = fp.pairing_t(phi, psi, t, cfg)
        used = max(used, out.truncation_degree)
        if out.verdict == "divergent":
            return PairingReport(
                value=None, method="abel", verdict="divergent", converged=False,
                truncation_degree=used, tail_estimate=math.inf,
                t_grid=tuple(grid), failed_t=t,
            )
        if not out.converged:
            return PairingReport(
                value=None, method="abel", verdict="undecided", converged=False,
                truncation_degree=used, tail_estimate=math.inf,
                t_grid=tuple(grid), failed_t=t,
            )
        worst_tail = max(worst_tail, out.tail_estimate)
        values.append(out.value)
    mags = np.abs(np.array(values))
    if len(mags) >= 6:
        lastsix = mags[-6:]
        if np.all(np.diff(lastsix) > 0) and lastsix[-1] > 4.0 * (lastsix[0] + 1e-30):
            return PairingReport(
                value=None, method="abel", verdict="divergent", converged=False,
                truncation_degree=used, tail_estimate=math.inf,
                t_grid=tuple(grid), failed_t=grid[-1],
            )
    value, resid = _scalar_wynn(values)
    ok = math.isfinite(resid) and resid <= cfg.tolerance
    return PairingReport(
        value=value if ok else None,
        method="abel",
        verdict="converged" if ok else "undecided",
        converged=ok,
        truncation_degree=used,
        tail_estimate=worst_tail,
        t_grid=tuple(grid),
        extrapolation_residual=float(resid),
    )


def test_abel_grid_matches_pointwise_loop():
    cfg = fp.RegularizationConfig()
    grid = cfg.t_grid()
    n = cfg.max_degree + 1
    rng = np.random.default_rng(2)
    cases = {
        "convergent": (0.5 ** np.arange(n), "converged", None),
        "alternating": ((-1.0) ** np.arange(n), "converged", None),
        # ratio 1.05 t^2 crosses 1 between the third and fourth grid points
        "growing": (1.05 ** np.arange(n), "divergent", grid[3]),
        # bounded random terms: no rule decides once t is close enough to 1
        "random": (rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n), "undecided", grid[1]),
    }
    ones = fp.sequence_element(np.ones(n))
    for name, (seq, verdict, failed_t) in cases.items():
        psi = fp.sequence_element(seq)
        got = fp.abel_pairing(ones, psi, cfg)
        assert repr(got) == repr(_reference_abel(ones, psi, cfg)), name
        assert (got.verdict, got.failed_t) == (verdict, failed_t), name
        terms, finite = degree_terms(ones, psi, cfg.max_degree)
        degrees = np.arange(len(terms))
        rows = _sum_weighted(_scaled(terms, degrees, grid), degrees, finite, cfg)
        for t, row in zip(grid, rows):
            rep = fp.pairing_t(ones, psi, t, cfg)
            assert repr((rep.value, rep.verdict, rep.tail_estimate, rep.truncation_degree)) == repr(
                (row.value, row.verdict, row.tail, row.used_degree)
            ), (name, t)


def test_abel_growth_toward_one_is_divergent():
    # every grid point converges, but 1 / (1 - t^2) grows without bound
    cfg = fp.RegularizationConfig()
    ones = fp.sequence_element(np.ones(cfg.max_degree + 1))
    got = fp.abel_pairing(ones, ones, cfg)
    assert (got.verdict, got.failed_t) == ("divergent", cfg.t_grid()[-1])
    assert repr(got) == repr(_reference_abel(ones, ones, cfg))


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
    prev = list(s)
    cands = [(prev[-1], abs(prev[-1] - prev[-2]))]
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


def _fuzz_sums(rng, i):
    """Partial sums of one of ten term families, edge cases included."""
    n = int(rng.integers(0, 48))
    k = np.arange(n)
    family = i % 10
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
    else:
        terms = (-1.0) ** k * (k + 1.0)
    with np.errstate(all="ignore"):
        sums = np.cumsum(np.asarray(terms, dtype=complex))
    if family == 9 and n:
        sums[rng.integers(0, n)] = sums[0]
    return sums


def test_wynn_epsilon_matches_scalar_tableau():
    rng = np.random.default_rng(1956)
    checked = 0
    for i in range(1200):
        sums = _fuzz_sums(rng, i)
        kept = sums.copy()
        value, resid = wynn_epsilon(sums)
        want_value, want_resid = _scalar_wynn(sums)
        assert _same_bits(value, want_value) and _same_bits(resid, want_resid), (i, sums)
        assert np.array_equal(sums.view(np.int64), kept.view(np.int64))
        checked += 1
        if i % 3:
            continue
        # prefixes of three rows read off one table, each equal to its own
        # call; the short row is padded with NaN, which no prefix may read
        prefixes = sorted(p for p in {0, 1, 2, 3, len(sums) // 2, 3 * len(sums) // 4, len(sums)} if p <= len(sums))
        short = sums[::2]
        block = np.full((3, len(sums)), complex(np.nan, np.nan))
        block[0], block[1], block[2, :len(short)] = sums, sums[::-1], short
        lengths = [prefixes, prefixes, [min(p, len(short)) for p in prefixes]]
        values, resids = wynn_epsilon(block, lengths)
        for row in range(3):
            for j, p in enumerate(lengths[row]):
                want_value, want_resid = _scalar_wynn(block[row, :p])
                assert _same_bits(values[row, j], want_value), (i, row, p)
                assert _same_bits(resids[row, j], want_resid), (i, row, p)
    assert checked >= 1000


def test_regularization_config_validation():
    with pytest.raises(ValueError):
        fp.RegularizationConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="max_degree"):
        fp.RegularizationConfig(max_degree=-1)
    assert fp.RegularizationConfig(max_degree=0).max_degree == 0
    cfg = fp.RegularizationConfig()
    grid = cfg.t_grid()
    assert grid[0] == pytest.approx(1.0 - 2.0**-3)
    assert grid[-1] == pytest.approx(1.0 - 2.0**-12)
    assert all(0.0 < t < 1.0 for t in grid)


def test_report_fields_round_out():
    vac = fp.vacuum(2)
    rep = fp.pairing_1(vac, vac)
    assert rep.method == "series_1"
    rep_t = fp.pairing_t(vac, vac, 0.5)
    assert rep_t.method == "scaled_t"
    cfg = fp.RegularizationConfig()
    n = cfg.max_degree + 1
    conv = fp.sequence_element(0.5 ** np.arange(n))
    rep_a = fp.abel_pairing(conv, conv, cfg)
    assert rep_a.method == "abel"
    assert rep_a.t_grid == tuple(cfg.t_grid())
    assert rep_a.extrapolation_residual <= cfg.tolerance
