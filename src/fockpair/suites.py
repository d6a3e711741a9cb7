"""Seeded identity checks: one table serves the verify command and the tests.

Each entry of CHECKS holds a suite, a draw function (the check takes its
name), a smoke count and a tolerance.  A draw function takes a numpy
Generator, draws one random instance (or computes one fixed case, ignoring
the generator) and returns its residual, comparing two independent routes to
the same quantity.  `worst` runs a draw function a given number of times on
one generator.  `run_suite` runs each check of a suite at its smoke count on
one generator seeded by the caller; the tests call the same draw functions
at their own seeds and instance counts, so every sweep is written once, here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import algebra, antilinear, detsqrt, gaussian
from .algebra import GradedElement
from .pairing import (
    RegularizationConfig,
    abel_pairing,
    degree_terms,
    divergence_demo,
    hoelder_pairing_check,
    number_op_pow,
    pairing_1,
    pairing_t,
    sequence_element,
    sequence_noninvariance_demo,
    graded_unitary_apply,
)

SUITE_NAMES = ("algebra", "gaussian", "hoelder", "invariance", "counterexamples")
HOELDER_EXPONENTS = ((2.0, 2.0), (3.0, 1.5), (1.0, math.inf), (math.inf, 1.0), (4.0, 4.0 / 3.0))
REBALANCE_POWERS = (-2.0, -1.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float
    passed: bool


def worst(draw: Callable[[np.random.Generator], float], rng: np.random.Generator, count: int) -> float:
    """Largest residual of `count` instances drawn in turn from rng.

    A NaN residual counts as infinite, so it can never pass a tolerance.
    """
    out = 0.0
    for _ in range(count):
        r = float(draw(rng))
        out = max(out, math.inf if math.isnan(r) else r)
    return out


def random_element(rng, m: int, horizon: int, decay: float = 0.6, truncated: bool = True) -> GradedElement:
    """Complex Gaussian coefficients in every degree d <= horizon, scaled by decay**d.

    Real parts, then imaginary parts, degree by degree, read from one block
    of normals (a Generator gives the same numbers in one call as in many).
    """
    sizes = [algebra.basis_size(m, d) for d in range(horizon + 1)]
    normals = rng.standard_normal(2 * sum(sizes))
    comps = {}
    start = 0
    for d, n in enumerate(sizes):
        comps[d] = (decay**d) * (normals[start:start + n] + 1j * normals[start + n:start + 2 * n])
        start += 2 * n
    return GradedElement(m, comps, horizon, truncated)


def random_gv_member(rng, m: int) -> np.ndarray:
    """P + 3iH with P positive definite and H Hermitian: its Hermitian part is P."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    p = a @ a.conj().T + 0.05 * np.eye(m)
    h = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return p + 3j * ((h + h.conj().T) / 2)


def _random_vectors(rng, m: int, k: int):
    return [rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(k)]


def random_unitary(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def coeff_gap(a: GradedElement, b: GradedElement) -> float:
    """Largest degreewise coefficient distance between two elements."""
    top = max(a.max_degree, b.max_degree)
    return max(float(np.linalg.norm(a.component(d) - b.component(d))) for d in range(top + 1))


def coproduct_route_evaluate(a: GradedElement, b: GradedElement, phi: GradedElement) -> complex:
    """Evaluate the product functional a*b on phi through the coproduct.

    Applies (a tensor b) to the splitting expansion of each monomial of phi;
    independent of the product's own coefficient arithmetic, so it serves as
    a from-the-definition cross-check.
    """
    m = phi.dim
    pos = {d: algebra._positions(m, d) for d in range(max(phi.nonzero_degrees(), default=-1) + 1)}
    total = 0j
    for d in phi.nonzero_degrees():
        for entry, coef in zip(algebra.enumerate_basis(m, d), phi.components[d]):
            if coef == 0:
                continue
            inner = 0j
            for bpart, cpart, w in algebra.coproduct_oracle(entry):
                db, dc = sum(bpart), sum(cpart)
                fa = a.component(db)[pos[db][bpart]]
                fb = b.component(dc)[pos[dc][cpart]]
                inner += w * algebra.normalization(bpart) * algebra.normalization(cpart) * fa * fb
            total += np.conj(coef) * inner / algebra.normalization(entry)
    return complex(total)


# ---------------------------------------------------------------- algebra


def inner_product_vs_permanent(rng) -> float:
    m, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    xs, ys = _random_vectors(rng, m, d), _random_vectors(rng, m, d)
    via_perm = algebra.permanent_inner_oracle(xs, ys)
    via_coord = algebra.inner_product(algebra.embed_product(xs), algebra.embed_product(ys))
    return abs(via_perm - via_coord) / max(1.0, abs(via_perm))


def embed_is_multiplicative(rng) -> float:
    m = int(rng.integers(1, 4))
    xs = _random_vectors(rng, m, int(rng.integers(1, 4)))
    ys = _random_vectors(rng, m, int(rng.integers(1, 4)))
    lhs = algebra.symmetric_product(algebra.embed_product(xs), algebra.embed_product(ys))
    return coeff_gap(lhs, algebra.embed_product(xs + ys))


def _random_polys(rng, m: int, k: int, low: int, high: int) -> list[GradedElement]:
    """k polynomials with horizons drawn from [low, high) and decays from [0.6, 1)."""
    return [
        random_element(rng, m, int(rng.integers(low, high)), rng.uniform(0.6, 1.0), truncated=False)
        for _ in range(k)
    ]


def product_routes_agree(rng) -> float:
    a, b = _random_polys(rng, int(rng.integers(1, 4)), 2, 0, 5)
    sym, anti = algebra.symmetric_product(a, b), algebra.antidual_product(a, b)
    same = (sym.max_degree, sym.truncated) == (anti.max_degree, anti.truncated)
    return coeff_gap(sym, anti) if same else math.inf


def coproduct_evaluation_identity(rng) -> float:
    m = int(rng.integers(1, 4))
    a, b = _random_polys(rng, m, 2, 0, 4)
    phi = random_element(rng, m, 6, rng.uniform(0.6, 1.0), truncated=False)
    direct = algebra.evaluate(algebra.antidual_product(a, b), phi)
    return abs(direct - coproduct_route_evaluate(a, b, phi))


def power_inner_product_formula(rng) -> float:
    """<x^d | y^d> = d! <x|y>^d, relative to the Cauchy-Schwarz bound d! (|x| |y|)^d.

    The coordinate sum adds terms as large as that bound, whatever |<x|y>|
    is, so its rounding scales with the bound: nearly orthogonal x and y give
    a small right side but not a small rounding error.
    """
    m, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    x, y = _random_vectors(rng, m, 2)
    lhs = algebra.inner_product(algebra.embed_product([x] * d), algebra.embed_product([y] * d))
    rhs = float(math.factorial(d)) * np.vdot(x, y) ** d
    bound = float(math.factorial(d)) * (float(np.linalg.norm(x)) * float(np.linalg.norm(y))) ** d
    return abs(lhs - rhs) / max(1.0, bound)


def product_commutative_associative(rng) -> float:
    a, b, c = _random_polys(rng, int(rng.integers(1, 4)), 3, 2, 4)
    prod = algebra.symmetric_product
    ab = prod(a, b)
    return max(coeff_gap(ab, prod(b, a)), coeff_gap(prod(ab, c), prod(a, prod(b, c))))


# ---------------------------------------------------------------- gaussian


def takagi_reconstruction(rng) -> float:
    m = int(rng.integers(1, 7))
    z = antilinear.random_symmetric(m, rng)
    fac = antilinear.takagi(z)
    if np.any(np.diff(fac.values) > 1e-14):  # values must not ascend
        return math.inf
    return max(
        float(np.abs(fac.reconstruct() - z.matrix).max()),
        float(np.abs(fac.unitary.conj().T @ fac.unitary - np.eye(m)).max()),
        float(np.abs(fac.values - np.linalg.svd(z.matrix, compute_uv=False)).max()),
    )


def _random_seed(rng, m: int, low: float, high: float) -> gaussian.GaussianSeed:
    zmap = antilinear.random_symmetric(m, rng, norm=float(rng.uniform(low, high)))
    return gaussian.GaussianSeed.from_map(zmap)


def norm_sq_series_vs_closed(rng) -> float:
    seed = _random_seed(rng, int(rng.integers(1, 4)), 0.05, 0.8)
    series = gaussian.gaussian_series(seed, cap=120)
    plain = sum(float(np.vdot(series.component(d), series.component(d)).real) for d in series.degrees())
    rep = pairing_1(series, series)
    closed = gaussian.norm_sq_closed(seed)
    return max(abs(plain - closed), abs(rep.value - closed)) / closed if rep.converged else math.inf


def scaled_pairing_vs_closed(rng) -> float:
    m = int(rng.integers(1, 4))
    t = 0.9
    sx, sy = _random_seed(rng, m, 0.2, 1.0), _random_seed(rng, m, 0.2, 1.0)
    rep = pairing_t(gaussian.gaussian_series(sx, cap=120), gaussian.gaussian_series(sy, cap=120), t)
    # grade d carries t^(2d) and the Gaussian grades are 2n, so the closed
    # form is evaluated at parameter t^2
    closed = gaussian.pair_closed(sx, sy, t * t)
    return abs(rep.value - closed) / abs(closed) if rep.converged else math.inf


def stream_gap(sx: gaussian.GaussianSeed, sy: gaussian.GaussianSeed, cap: int) -> float:
    """Worst |a_d(gaussian_terms) - a_d(degree_terms on gaussian_series)| / (|phi_d| |psi_d|) up to cap.

    A degree where both routes read 0 counts 0.  Differing finite flags, a
    longer stream or a nonzero odd term count as infinite.
    """
    ex, ey = gaussian.gaussian_series(sx, cap), gaussian.gaussian_series(sy, cap)
    want, finite = degree_terms(ex, ey)
    got, got_finite = gaussian.gaussian_terms(sx, sy, cap)
    if got_finite != finite or len(got) > len(want):
        return math.inf
    gap = np.abs(np.pad(got, (0, len(want) - len(got))) - want)
    scale = [np.linalg.norm(ex.component(d)) * np.linalg.norm(ey.component(d)) for d in range(cap + 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(gap == 0, 0.0, gap / scale)
    return math.inf if gap[1::2].any() else float(rel.max())


def stream_terms_vs_element_terms(rng) -> float:
    m, cap = int(rng.integers(1, 5)), int(rng.integers(0, 81))
    return stream_gap(_random_seed(rng, m, 0.05, 0.9), _random_seed(rng, m, 0.05, 0.9), cap)


def quadratic_correspondence_roundtrip(rng) -> float:
    z = antilinear.random_symmetric(int(rng.integers(1, 6)), rng)
    back = antilinear.map_from_quadratic(antilinear.quadratic_from_map(z))
    return float(np.abs(back.matrix - z.matrix).max())


def det_sqrt_square_identity(rng) -> float:
    t = random_gv_member(rng, int(rng.integers(1, 7)))
    root = detsqrt.det_sqrt(t)
    det = np.linalg.det(t)
    return abs(root * root - det) / abs(det)


def det_sqrt_segment_continuity(rng) -> float:
    jump, cont = detsqrt.segment_branch_check(random_gv_member(rng, int(rng.integers(1, 7))))
    return cont if jump < 0.5 else math.inf


@functools.cache
def _boundary_pairings():
    """Series and Abel pairings of exp(conjugation) with exp(-I) in dim 2, and the closed form."""
    sx = gaussian.GaussianSeed.from_map(antilinear.conjugation(2))
    sy = gaussian.GaussianSeed.from_map(antilinear.AntilinearSymmetricMap(-np.eye(2)))
    ex = gaussian.gaussian_series(sx, cap=200)
    ey = gaussian.gaussian_series(sy, cap=200)
    return pairing_1(ex, ey), abel_pairing(ex, ey), gaussian.pair_closed(sx, sy)


def boundary_abel_recovers_closed(rng) -> float:
    _, abel, _ = _boundary_pairings()
    return abs(abel.value - 0.5) if abel.converged else math.inf


def boundary_abel_value(rng) -> float:
    _, _, closed = _boundary_pairings()
    return max(boundary_abel_recovers_closed(rng), abs(closed - 0.5))


# ---------------------------------------------------------------- hoelder


def cauchy_schwarz_self_equality(rng) -> float:
    phi = random_element(rng, int(rng.integers(1, 4)), 12)
    return abs(hoelder_pairing_check(phi, phi, 2.0, 2.0).slack)


def hoelder_slack_nonnegative(rng) -> float:
    m, top = int(rng.integers(1, 4)), int(rng.integers(15, 31))
    phi, psi = (random_element(rng, m, top, rng.uniform(0.3, 0.6)) for _ in range(2))
    return max(-min(hoelder_pairing_check(phi, psi, p, q).slack, 0.0) for p, q in HOELDER_EXPONENTS)


def number_operator_rebalance(rng) -> float:
    m, top = int(rng.integers(1, 4)), int(rng.integers(6, 11))
    phi, psi = (random_element(rng, m, top, truncated=False) for _ in range(2))
    base = pairing_1(phi, psi).value
    gaps = []
    for r in REBALANCE_POWERS:
        a, b = number_op_pow(phi, -r), number_op_pow(psi, r)
        gaps += [abs(pairing_1(a, b).value - base), abs(algebra.inner_product(a, b) - base)]
    return max(gaps)


# ---------------------------------------------------------------- invariance


def _invariance_gap(blocks, phi, psi, t: float, cfg: RegularizationConfig) -> float:
    before = pairing_t(phi, psi, t, cfg).value
    after = pairing_t(graded_unitary_apply(blocks, phi), graded_unitary_apply(blocks, psi), t, cfg).value
    return abs(before - after)


def graded_unitary_invariance(rng) -> float:
    m = int(rng.integers(1, 3))
    phi, psi = (random_element(rng, m, 10, truncated=False) for _ in range(2))
    blocks = {d: random_unitary(rng, algebra.basis_size(m, d)) for d in range(11)}
    t = float(rng.uniform(0.3, 0.95))
    return _invariance_gap(blocks, phi, psi, t, RegularizationConfig(max_degree=10))


def functorial_lift_invariance(rng) -> float:
    m = int(rng.integers(1, 4))
    q = random_unitary(rng, m)
    blocks = {d: algebra.symmetric_power_matrix(q, d) for d in range(7)}
    unitarity = max(float(np.abs(b.conj().T @ b - np.eye(b.shape[0])).max()) for b in blocks.values())
    phi, psi = (random_element(rng, m, 6, truncated=False) for _ in range(2))
    return max(unitarity, _invariance_gap(blocks, phi, psi, 0.7, RegularizationConfig(max_degree=6)))


def polynomial_pairing_is_evaluation(rng) -> float:
    m = int(rng.integers(1, 4))
    poly = random_element(rng, m, int(rng.integers(0, 6)), rng.uniform(0.6, 0.7), truncated=False)
    psi = random_element(rng, m, int(rng.integers(20, 41)), rng.uniform(0.3, 0.6))
    want = algebra.evaluate(psi, poly)
    first, second = pairing_1(poly, psi), pairing_1(psi, poly)
    if not all(rep.converged and rep.tail_estimate == 0.0 for rep in (first, second)):
        return math.inf
    return max(abs(first.value - want), abs(second.value - np.conj(want)))


def conjugate_symmetry(rng) -> float:
    m = int(rng.integers(1, 3))
    phi, psi = (random_element(rng, m, 10, truncated=False) for _ in range(2))
    cfg = RegularizationConfig(max_degree=10)
    return abs(pairing_t(phi, psi, 0.8, cfg).value - np.conj(pairing_t(psi, phi, 0.8, cfg).value))


def abel_consistent_with_series(rng) -> float:
    cfg = RegularizationConfig()
    m = int(rng.integers(1, 3))
    phi, psi = (random_element(rng, m, cfg.max_degree, decay=float(rng.uniform(0.3, 0.7))) for _ in range(2))
    s_rep = pairing_1(phi, psi, cfg)
    a_rep = abel_pairing(phi, psi, cfg)
    if not (s_rep.converged and a_rep.converged):
        return math.inf
    return abs(s_rep.value - a_rep.value) / (10 * cfg.tolerance)


# ---------------------------------------------------------------- counterexamples


def sequence_swap_limits(rng) -> float:
    before, after = sequence_noninvariance_demo()
    if not (before.converged and after.converged):
        return math.inf
    return max(abs(before.value - 0.5), abs(after.value - 1.5))


def sequence_mid_t_value(rng) -> float:
    horizon = 200
    lam = sequence_element(np.ones(horizon + 1))
    mu = sequence_element([(-1.0) ** d for d in range(horizon + 1)])
    return abs(pairing_t(lam, mu, 0.5, RegularizationConfig()).value - 0.8)


def conjugation_term_ratios(rng) -> float:
    gaps = []
    for m in (1, 2, 4):
        for d, r in enumerate(divergence_demo(m)):
            want = (d + m / 2.0) / (d + 1.0)
            gaps.append(abs(r - want) / min(1.0, want))  # relative below 1, absolute above
    return max(gaps)


def boundary_series_divergent(rng) -> float:
    series, _, _ = _boundary_pairings()
    return 0.0 if series.verdict == "divergent" else 1.0


def pringsheim_self_pairing(rng) -> float:
    cfg = RegularizationConfig()
    conv = sequence_element(0.5 ** np.arange(cfg.max_degree + 1))
    div = sequence_element(np.ones(cfg.max_degree + 1))
    s_conv = pairing_1(conv, conv, cfg)
    a_conv = abel_pairing(conv, conv, cfg)
    want = 1.0 / (1.0 - 0.25)
    ok = (
        s_conv.converged
        and a_conv.converged
        and abs(s_conv.value - want) <= 1e-8
        and abs(a_conv.value - want) <= 10 * cfg.tolerance
        and abs(a_conv.value - s_conv.value) < 1e-7
        and pairing_1(div, div, cfg).verdict == "divergent"
        and abel_pairing(div, div, cfg).verdict == "divergent"
    )
    return 0.0 if ok else 1.0


class Entry(NamedTuple):
    suite: str
    draw: Callable[[np.random.Generator], float]  # the check is named after it
    count: int  # instances per verify run
    tol: float


CHECKS = (
    Entry("algebra", inner_product_vs_permanent, 40, 1e-10),
    Entry("algebra", embed_is_multiplicative, 20, 1e-8),
    Entry("algebra", product_routes_agree, 20, 1e-10),
    Entry("algebra", coproduct_evaluation_identity, 12, 1e-10),
    Entry("algebra", power_inner_product_formula, 20, 1e-10),
    Entry("algebra", product_commutative_associative, 1, 1e-8),
    Entry("gaussian", takagi_reconstruction, 50, 1e-10),
    Entry("gaussian", norm_sq_series_vs_closed, 15, 1e-8),
    Entry("gaussian", scaled_pairing_vs_closed, 15, 1e-8),
    Entry("gaussian", stream_terms_vs_element_terms, 8, 1e-12),
    Entry("gaussian", quadratic_correspondence_roundtrip, 25, 1e-12),
    Entry("gaussian", det_sqrt_square_identity, 20, 1e-10),
    Entry("gaussian", det_sqrt_segment_continuity, 20, 1e-8),
    Entry("gaussian", boundary_abel_value, 1, 1e-4),
    Entry("hoelder", cauchy_schwarz_self_equality, 20, 1e-8),
    Entry("hoelder", hoelder_slack_nonnegative, 15, 1e-12),
    Entry("hoelder", number_operator_rebalance, 10, 1e-12),
    Entry("invariance", graded_unitary_invariance, 10, 1e-12),
    Entry("invariance", functorial_lift_invariance, 6, 1e-10),
    Entry("invariance", polynomial_pairing_is_evaluation, 10, 1e-12),
    Entry("invariance", conjugate_symmetry, 10, 1e-12),
    Entry("invariance", abel_consistent_with_series, 15, 1.0),
    Entry("counterexamples", sequence_swap_limits, 1, 1e-6),
    Entry("counterexamples", sequence_mid_t_value, 1, 1e-10),
    Entry("counterexamples", conjugation_term_ratios, 1, 1e-9),
    Entry("counterexamples", boundary_series_divergent, 1, 0.0),
    Entry("counterexamples", boundary_abel_recovers_closed, 1, 1e-4),
    Entry("counterexamples", pringsheim_self_pairing, 1, 0.0),
)


def run_suite(name: str, seed: int = 0) -> list[Check]:
    if name == "all":
        return [
            Check(f"{nm}.{c.name}", c.residual, c.tol, c.passed) for nm in SUITE_NAMES for c in run_suite(nm, seed)
        ]
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    rng = np.random.default_rng(seed)
    out = []
    for e in CHECKS:
        if e.suite == name:
            residual = worst(e.draw, rng, e.count)
            out.append(Check(e.draw.__name__, residual, e.tol, residual <= e.tol))
    return out
