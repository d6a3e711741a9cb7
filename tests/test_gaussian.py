"""Gaussian vectors exp(Z): series truncations against the closed forms."""

import math

import numpy as np
import pytest

import fockpair as fp
from fockpair import algebra, gaussian, suites
from fockpair.antilinear import random_symmetric
from fockpair.pairing import degree_terms


def seed_from(a):
    return fp.GaussianSeed.from_matrix(np.asarray(a, dtype=complex))


def random_seed(rng, m, norm):
    return fp.GaussianSeed.from_map(random_symmetric(m, rng, norm=norm))


def test_zero_seed_gives_vacuum():
    g = fp.gaussian_series(seed_from(np.zeros((3, 3))))
    assert g.nonzero_degrees() == [0]
    assert g.component(0)[0] == 1.0
    assert not g.truncated


def test_degree_two_component_is_quadratic_element():
    rng = np.random.default_rng(3)
    seed = random_seed(rng, 3, 0.7)
    g = fp.gaussian_series(seed, cap=8)
    assert np.allclose(g.component(2), seed.quadratic.component(2))
    assert g.truncated
    assert all(d % 2 == 0 for d in g.nonzero_degrees())


def test_one_dim_pair_terms_central_binomial():
    # <(e^X)_{2d} | (e^Y)_{2d}> = binom(2d, d) (conj(a) b / 4)^d in dim one
    a, b = 0.6 + 0.3j, -0.5 + 0.55j
    gx = fp.gaussian_series(seed_from([[a]]), cap=40)
    gy = fp.gaussian_series(seed_from([[b]]), cap=40)
    terms, finite = degree_terms(gx, gy)
    assert not finite
    w = np.conj(a) * b / 4.0
    for d in range(0, 21):
        expect = math.comb(2 * d, d) * w**d
        assert abs(terms[2 * d] - expect) <= 1e-12 * max(1.0, abs(expect))


def test_norm_sq_closed_values():
    assert fp.norm_sq_closed(seed_from(np.zeros((2, 2)))) == pytest.approx(1.0)
    # single singular value 0.6: (1 - 0.36)^(-1/2) = 1.25
    assert fp.norm_sq_closed(seed_from([[0.6]])) == pytest.approx(1.25, abs=1e-14)


def test_norm_sq_closed_boundary_raises():
    with pytest.raises(fp.DomainError):
        fp.norm_sq_closed(fp.GaussianSeed.from_map(fp.conjugation(2)))


def test_norm_series_matches_closed():
    assert suites.worst(suites.norm_sq_series_vs_closed, np.random.default_rng(7), 25) < 1e-8


def test_pair_closed_diagonal_is_norm():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        seed = random_seed(rng, m, norm=rng.uniform(0.1, 0.9))
        assert fp.pair_closed(seed, seed, 1.0) == pytest.approx(
            fp.norm_sq_closed(seed), rel=1e-12
        )


def test_pair_closed_fixed_values():
    # dim one, a = 1, b = -1: det_sqrt(1 - (-1))^(-1) = 2^(-1/2)
    val = fp.pair_closed(seed_from([[1.0]]), seed_from([[-1.0]]), 1.0)
    assert val == pytest.approx(2.0 ** -0.5, rel=1e-12)
    # conjugation against its negative: 2^(-m/2)
    for m in (1, 2, 3):
        sx = fp.GaussianSeed.from_map(fp.conjugation(m))
        sy = seed_from(-np.eye(m))
        assert fp.pair_closed(sx, sy, 1.0) == pytest.approx(2.0 ** (-m / 2), rel=1e-12)


def test_pair_closed_hermitian_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        sx = random_seed(rng, m, norm=rng.uniform(0.1, 1.0))
        sy = random_seed(rng, m, norm=rng.uniform(0.1, 1.0))
        t = float(rng.uniform(0.3, 1.0))
        lhs = fp.pair_closed(sx, sy, t)
        rhs = np.conj(fp.pair_closed(sy, sx, t))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_pair_closed_sesquiholomorphic():
    # finite-difference Cauchy-Riemann check: holomorphic in the second seed,
    # conjugate-holomorphic in the first
    rng = np.random.default_rng(15)
    m = 3
    ax = random_symmetric(m, rng, norm=0.5).matrix
    ay = random_symmetric(m, rng, norm=0.5).matrix
    h = 1e-6
    t = 0.9

    def f(xm, ym):
        return fp.pair_closed(seed_from(xm), seed_from(ym), t)

    for i, j in ((0, 0), (0, 2), (1, 2)):
        e = np.zeros((m, m))
        e[i, j] += 1.0
        e[j, i] += 1.0 if i != j else 0.0
        dyr = (f(ax, ay + h * e) - f(ax, ay - h * e)) / (2 * h)
        dyi = (f(ax, ay + 1j * h * e) - f(ax, ay - 1j * h * e)) / (2 * h)
        assert abs(dyi - 1j * dyr) <= 1e-5 * (1.0 + abs(dyr))
        dxr = (f(ax + h * e, ay) - f(ax - h * e, ay)) / (2 * h)
        dxi = (f(ax + 1j * h * e, ay) - f(ax - 1j * h * e, ay)) / (2 * h)
        assert abs(dxi + 1j * dxr) <= 1e-5 * (1.0 + abs(dxr))


def test_series_pair_scaled_matches_closed():
    rng = np.random.default_rng(21)
    t = 0.95
    worst = 0.0
    for _ in range(15):
        m = int(rng.integers(1, 4))
        sx = random_seed(rng, m, norm=rng.uniform(0.2, 0.8))
        sy = random_seed(rng, m, norm=rng.uniform(0.2, 0.8))
        gx = fp.gaussian_series(sx, cap=120)
        gy = fp.gaussian_series(sy, cap=120)
        terms, _ = degree_terms(gx, gy)
        total = sum(terms[d] * t ** (2 * d) for d in range(len(terms)))
        closed = fp.pair_closed(sx, sy, t * t)
        worst = max(worst, abs(total - closed) / max(1.0, abs(closed)))
    assert worst < 1e-8


def test_conjugation_term_ratios():
    # self-pairing terms of exp(conjugation/sqrt-free seed) grow with ratio
    # (n + m/2) / (n + 1), approaching 1 from above or below by dimension
    for m in (1, 2, 4):
        g = fp.gaussian_series(fp.GaussianSeed.from_map(fp.conjugation(m)), cap=60)
        terms, _ = degree_terms(g, g)
        vals = [terms[2 * n].real for n in range(0, 26)]
        for n in range(25):
            expect = (n + m / 2.0) / (n + 1.0)
            assert vals[n + 1] / vals[n] == pytest.approx(expect, rel=1e-10)


def test_budget_guard(monkeypatch):
    seed = seed_from(0.5 * np.eye(10))
    with pytest.raises(fp.GuardExceeded):
        fp.gaussian_series(seed)
    small = seed_from([[0.5, 0.0], [0.0, 0.5]])
    # the guard reads the budget at call time
    monkeypatch.setattr(gaussian, "_BUDGET", 5)
    with pytest.raises(fp.GuardExceeded):
        fp.gaussian_series(small, cap=20)


def test_budget_guard_fails_fast(monkeypatch):
    # the count stops once it passes the budget, with few binomials and no
    # layout made: at m = 1 a cap of 10^6 is 500,001 coefficients
    monkeypatch.setattr(gaussian, "_BUDGET", 1000)
    seeds = seed_from([[0.5]]), seed_from(0.5 * np.eye(3))
    calls, comb = [], math.comb
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append(n) or comb(n, k))
    layouts = algebra._layout.cache_info().misses
    for seed in seeds:
        with pytest.raises(fp.GuardExceeded):
            fp.gaussian_series(seed, 10**6)
    assert len(calls) < 100 and algebra._layout.cache_info().misses == layouts


def test_vanished_power_keeps_filled_degrees():
    # zeta^2 / 2 underflows to zero: the loop stops there and keeps degrees 0
    # and 2 in a buffer of their own, while the horizon and flag still say cap
    g = fp.gaussian_series(seed_from([[1e-200]]), cap=10)
    assert g.degrees() == g.nonzero_degrees() == [0, 2]
    assert (g.max_degree, g.truncated) == (10, True)
    assert g._buf.flags.owndata and len(g._buf) == 2


def test_negative_cap_rejected():
    seed = seed_from(0.5 * np.eye(2))
    with pytest.raises(ValueError, match="cap"):
        fp.gaussian_series(seed, cap=-1)
    assert fp.gaussian_series(seed, cap=0).degrees() == [0]


def test_power_loop_validates_no_element_per_power(monkeypatch):
    # the loop's own elements skip the public constructor's checks, so the
    # number of checked builds does not grow with the number of powers
    seed = random_seed(np.random.default_rng(13), 2, 0.8)
    checked = []
    validate = fp.GradedElement.__init__

    def counting(self, *args, **kwargs):
        checked.append(self)
        validate(self, *args, **kwargs)

    monkeypatch.setattr(fp.GradedElement, "__init__", counting)
    builds = []
    for cap in (2, 40):
        checked.clear()
        g = fp.gaussian_series(seed, cap=cap)
        assert g.nonzero_degrees() == list(range(0, cap + 1, 2))
        builds.append(len(checked))
    assert builds[0] == builds[1] <= 1
    assert not any(v.flags.writeable for v in g.components.values())


def test_power_loop_makes_one_product_per_power_and_no_scale(monkeypatch):
    # every power of a dense seed is nonzero up to the cap: one product each,
    # reached through the module global, and the factors zeta / n come from
    # one broadcast per block rather than from scale
    products, product = [], gaussian.symmetric_product

    def spy(term, factor, **kwargs):
        products.append((factor, factor._nnz))
        return product(term, factor, **kwargs)

    monkeypatch.setattr(gaussian, "symmetric_product", spy)
    monkeypatch.setattr(algebra, "scale", lambda *args: pytest.fail("scale called"))
    seed = random_seed(np.random.default_rng(29), 3, 0.8)
    for cap in (2, 40, 2 * gaussian._FACTOR_BLOCK + 10):
        products.clear()
        g = fp.gaussian_series(seed, cap=cap)
        assert g.nonzero_degrees() == list(range(0, cap + 1, 2))
        assert len(products) == cap // 2
        # each factor comes with its nonzero counts, so the product takes none
        assert [nnz for _, nnz in products] == [{2: 6}] * (cap // 2)
        assert all(np.array_equal(f._buf, seed.quadratic._buf * (1.0 / n)) for n, (f, _) in enumerate(products, 1))


def test_pair_closed_domain_errors():
    sigma = fp.GaussianSeed.from_map(fp.conjugation(2))
    with pytest.raises(fp.DomainError):
        fp.pair_closed(sigma, sigma, 1.0)  # I - YX singular at the boundary
    big = seed_from(1.2 * np.eye(2))
    with pytest.raises(fp.DomainError):
        fp.pair_closed(big, big, 0.5)
    with pytest.raises(ValueError):
        fp.pair_closed(sigma, sigma, 0.0)
    with pytest.raises(ValueError):
        fp.pair_closed(sigma, sigma, 1.5)
    with pytest.raises(fp.DomainError):
        fp.pair_closed(sigma, fp.GaussianSeed.from_map(fp.conjugation(3)), 0.5)


def test_stream_terms_match_element_terms():
    # dense, diagonal and sparse maps, a subnormal entry, caps 0 and 1, one
    # seed paired with itself, and a unitary whose entries add up past its
    # norm: pivoting on the first nonzero coordinate alone reads its
    # degree-200 terms 3e-5 off
    rng = np.random.default_rng(31)
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    sparse = [[0.5, 0.0, 0.2], [0.0, 0.3j, 0.1], [0.2, 0.1, -0.4]]
    tiny, other = seed_from(np.diag([0.9, 1e-323])), random_seed(rng, 2, 0.7)
    cases = [(random_seed(rng, m, 0.85), random_seed(rng, m, 0.6), cap) for m, cap in ((1, 200), (2, 120), (3, 60), (4, 30))]
    cases += [
        (seed_from(np.diag([0.7, -0.4 + 0.2j, 0.5])), seed_from(sparse), 60),
        (seed_from(sparse), seed_from(sparse), 60),
        (seed_from(u), seed_from(-u), 200),
        (tiny, tiny, 80), (tiny, other, 80), (other, tiny, 0), (other, tiny, 1),
    ]
    for sx, sy, cap in cases:
        assert suites.stream_gap(sx, sy, cap) <= 1e-13, (sx.map.matrix, cap)
    same = random_seed(rng, 3, 0.8)
    assert suites.stream_gap(same, same, 60) <= 1e-13
    terms, finite = fp.gaussian_terms(same, same, 60)
    assert not finite and len(terms) == 61 and np.array_equal(terms.imag, np.zeros(61))


def test_stream_of_a_zero_seed_or_a_short_cap_is_one_term():
    # A = 0 on either side makes the pairing finite and exactly the degree-zero
    # term; caps 0 and 1 stop there too, but the series is not finite
    zero, dense = seed_from(np.zeros((3, 3))), random_seed(np.random.default_rng(2), 3, 0.7)
    for sx, sy, cap, want in ((zero, zero, 40, True), (zero, dense, 40, True), (dense, zero, 40, True),
                              (dense, dense, 0, False), (dense, dense, 1, False)):
        terms, finite = fp.gaussian_terms(sx, sy, cap)
        assert finite == want and np.array_equal(terms, [1.0])
        assert suites.stream_gap(sx, sy, cap) == 0.0


def test_stream_stops_once_a_degree_underflows(monkeypatch):
    # h = 0.5 in dim one: the terms underflow past degree 1068 and the
    # coefficients near degree 2150, where the stream stops after about 1075
    # steps, long before a cap of 4 * 10^6
    steps, step = [], gaussian._next_degree
    monkeypatch.setattr(gaussian, "_next_degree", lambda m, d, *rest: steps.append(d) or step(m, d, *rest))
    h = seed_from([[0.5]])
    terms, finite = fp.gaussian_terms(h, h, 4_000_000)
    assert not finite and len(terms) == 1069 and terms[-1] != 0
    assert len(steps) < 1100
    assert suites.stream_gap(h, h, 1200) <= 1e-13


def test_stream_guards(monkeypatch):
    seed = seed_from(0.5 * np.eye(2))
    with pytest.raises(ValueError, match="cap"):
        fp.gaussian_terms(seed, seed, -1)
    with pytest.raises(fp.DimensionMismatch):
        fp.gaussian_terms(seed, seed_from(0.5 * np.eye(3)), 10)
    monkeypatch.setattr(gaussian, "_BUDGET", 5)
    with pytest.raises(fp.GuardExceeded) as stream:
        fp.gaussian_terms(seed, seed, 20)
    with pytest.raises(fp.GuardExceeded) as element:
        fp.gaussian_series(seed, 20)
    assert str(stream.value) == str(element.value)
