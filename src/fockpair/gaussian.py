"""Gaussian elements exp(Z) and their closed-form norms and pairings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    GradedElement,
    _basis_rows,
    _layout,
    _scatter_map,
    basis_size,
    symmetric_product,
    vacuum,
)
from .antilinear import (
    AntilinearSymmetricMap,
    TakagiFactorization,
    compose,
    quadratic_from_map,
    takagi,
)
from .detsqrt import det_sqrt
from .errors import DimensionMismatch, DomainError, GuardExceeded

DEFAULT_CAP = 120
_BUDGET = 50_000_000  # total coefficient budget across all degrees
_FACTOR_BLOCK = 128  # factors zeta / n made per broadcast


@dataclass(frozen=True)
class GaussianSeed:
    """An antilinear symmetric map with its quadratic and Takagi data cached."""

    map: AntilinearSymmetricMap
    quadratic: GradedElement
    factorization: TakagiFactorization

    @classmethod
    def from_map(cls, zmap: AntilinearSymmetricMap) -> "GaussianSeed":
        return cls(map=zmap, quadratic=quadratic_from_map(zmap), factorization=takagi(zmap))

    @classmethod
    def from_matrix(cls, a) -> "GaussianSeed":
        return cls.from_map(AntilinearSymmetricMap(np.asarray(a, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.map.dim

    @property
    def norm(self) -> float:
        return float(self.factorization.values[0])


def _factors(zeta: GradedElement, powers: int):
    """The factors zeta / n for n = 1 to powers, as elements that carry their nonzero counts.

    Each block of rows is one broadcast, which casts 1 / n to complex as
    scale does, so a row has scale's bits; its counts are one pass over the
    rows, never zeta's, as an entry can underflow once divided.  The blocks
    are made as the loop asks for them, since a series can stop long before
    its cap.  zeta is a quadratic element: one stored degree, two.
    """
    for start in range(1, powers + 1, _FACTOR_BLOCK):
        rows = (1.0 / np.arange(start, min(start + _FACTOR_BLOCK, powers + 1)))[:, None] * zeta._buf
        for row, nnz in zip(rows, np.count_nonzero(rows, axis=1).tolist()):
            yield GradedElement._fresh(zeta.dim, zeta._layout, row, zeta.max_degree, zeta.truncated,
                                       {2: nnz} if nnz else {})


def _budget_count(m: int, cap: int) -> int:
    """Coefficients of the even degrees up to cap; GuardExceeded past _BUDGET."""
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    # the count stops once past the budget, so an oversized cap fails at once
    # rather than after summing a binomial per degree; at m = 1 every degree
    # has one coefficient
    total, d = (cap // 2 + 1, cap + 2) if m == 1 else (0, 0)
    while d <= cap and total <= _BUDGET:
        total += math.comb(d + m - 1, m - 1)
        d += 2
    if total > _BUDGET:
        raise GuardExceeded(f"series of dim {m} to degree {cap} needs more than {_BUDGET} coefficients")
    return total


def gaussian_series(seed: GaussianSeed, cap: int = DEFAULT_CAP) -> GradedElement:
    """Truncation of exp(Z) = sum_d zeta^d / d! up to total degree cap.

    Powers are accumulated with a running division by the factorial, so only
    ratios of consecutive coefficients enter and no large factorial is ever
    formed.  Components sit in even degrees only.  The series buffer is
    allocated once, and each power is made straight into its slice.
    """
    m = seed.dim
    total = _budget_count(m, cap)
    zeta = seed.quadratic
    grows = 2 in zeta.nonzero_degrees()  # else the powers vanish and the series is exact
    layout = _layout(m, tuple(range(0, cap + 1, 2)))
    offsets = layout.offsets
    buf = np.empty(total, dtype=complex)
    buf[0] = 1.0
    term = vacuum(m)
    n = 0
    for factor in _factors(zeta, cap // 2 if grows else 0):
        term = symmetric_product(term, factor, cap=cap, out=buf[offsets[n + 1] : offsets[n + 2]])
        if 2 * (n + 1) not in term._nonzero_counts():
            break
        n += 1
    if n + 1 < len(layout.degrees):  # a power vanished: keep the degrees filled
        layout = _layout(m, layout.degrees[: n + 1])
        buf = buf[: layout.offsets[-1]].copy()
    return GradedElement._fresh(m, layout, buf, cap, grows)


def gaussian_terms(x_seed: GaussianSeed, y_seed: GaussianSeed, cap: int = DEFAULT_CAP):
    """Terms a_d = <phi_d | psi_d> of phi = exp(X) and psi = exp(Y) up to degree cap, and the finite flag.

    The terms degree_terms gives on the two gaussian_series, streamed degree
    by degree.  With f = exp(zeta), zeta = 1/2 sum A_ij v_i v_j, the
    Fock-space identity d_i f = (A v)_i f reads sqrt(t_i) c_T = sum_j A_ij
    sqrt(k_j) c_(K - e_j), K = T - e_i, for every i with t_i > 0 (Miatto and
    Quesada, Quantum 4, 366, 2020).  It is used summed over i with weights
    sqrt(t_i), which is Euler's relation sum_i v_i d_i f = 2 zeta f:
    d c_T = sum_ij A_ij sqrt(t_i (t_j - [i = j])) c_(T - e_i - e_j), so
    degree d is zeta / n times degree d - 2, n = d / 2, in the graded
    product's own arithmetic.  The form with one i per row, the first
    nonzero coordinate of T, amplifies rounding by up to a constant factor
    per degree: on A = [[1, 1], [1, -1]] / sqrt(2) its degree-200
    coefficients are off by 7e-3 relative, the summed form's within 2e-14 of
    a 200-bit reference.

    Each series keeps two degrees, and the positions and weights of a
    degree are made for it and dropped: no element, product or scatter plan
    is kept.  The stream stops once a degree of either series is all zero,
    as every later one is then, and the terms end at the last nonzero one;
    trailing zeros change no report field.  finite and the budget guard are
    gaussian_series'.
    """
    if x_seed.dim != y_seed.dim:
        raise DimensionMismatch("dims differ")
    m = x_seed.dim
    _budget_count(m, cap)
    seeds = (x_seed,) if y_seed is x_seed else (x_seed, y_seed)
    finite = not all(2 in s.quadratic.nonzero_degrees() for s in seeds)
    zetas = [s.quadratic._buf for s in seeds]
    live = np.flatnonzero(np.logical_or.reduce([z != 0 for z in zetas])).tolist()
    terms = np.zeros(1 if finite else cap + 1, dtype=complex)
    terms[0] = 1.0
    degree = [np.ones(1, dtype=complex) for _ in seeds]
    entries = _basis_rows(m, 2)
    for d in range(2, len(terms), 2):
        degree = _next_degree(m, d, zetas, live, degree, entries)
        terms[d] = np.vdot(degree[0], degree[-1])
        if not all(c.any() for c in degree):
            break
    return terms[: terms.nonzero()[0][-1] + 1], finite


def _next_degree(m: int, d: int, zetas, live: list[int], prev: list[np.ndarray],
                 entries: np.ndarray) -> list[np.ndarray]:
    """Degree d of each series, zeta / n times its degree d - 2 with n = d / 2.

    entries is _basis_rows(m, 2).  Each live entry adds its scaled weights
    times the coefficients through _scatter_map's table, made for this
    degree and kept by no cache, entry after entry in basis order, as
    symmetric_product scatters zeta's entries.
    """
    factors = [z * (1.0 / (d // 2)) for z in zetas]
    cur = [np.zeros(basis_size(m, d), dtype=complex) for _ in zetas]
    rows = _basis_rows(m, d - 2)
    for e in live:
        at, w = _scatter_map(m, d - 2, entries[e : e + 1], rows)
        at, w = at[0], w[0]  # np.add.at is far slower through a (1, n) index than a flat one
        for f, p, c in zip(factors, prev, cur):
            if f[e]:
                v = f[e] * w
                v *= p
                np.add.at(c, at, v)
    return cur


def norm_sq_closed(seed: GaussianSeed) -> float:
    """Closed form |exp(Z)|^2 = prod_k (1 - s_k^2)^(-1/2), needs norm < 1."""
    vals = seed.factorization.values
    if seed.norm >= 1.0:
        raise DomainError(
            f"norm {seed.norm:.6f} >= 1: the squared-norm series diverges"
        )
    return float(np.prod((1.0 - vals**2) ** -0.5))


def pair_closed(x_seed: GaussianSeed, y_seed: GaussianSeed, t: float = 1.0) -> complex:
    """Closed form det_sqrt(I - t^2 YX)^(-1) for the Gaussian pairing.

    For t < 1 this equals <exp(tX) | exp(tY)> whenever both seeds lie in the
    closed unit ball; at t = 1 the formula extends to the boundary provided
    I - YX has positive-definite Hermitian part, which is checked.
    """
    if x_seed.dim != y_seed.dim:
        raise DomainError("seed dims differ")
    if not 0.0 < t <= 1.0:
        raise ValueError("t must be in (0, 1]")
    if max(x_seed.norm, y_seed.norm) > 1.0 + 1e-12:
        raise DomainError("seeds must lie in the closed unit ball")
    m = x_seed.dim
    # det_sqrt raises DomainError when I - t^2 YX leaves its branch domain
    return 1.0 / det_sqrt(np.eye(m) - (t * t) * compose(y_seed.map, x_seed.map))
