"""Gaussian elements exp(Z) and their closed-form norms and pairings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import GradedElement, _layout, symmetric_product, vacuum
from .antilinear import (
    AntilinearSymmetricMap,
    TakagiFactorization,
    compose,
    quadratic_from_map,
    takagi,
)
from .detsqrt import det_sqrt
from .errors import DomainError, GuardExceeded

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


def gaussian_series(seed: GaussianSeed, cap: int = DEFAULT_CAP) -> GradedElement:
    """Truncation of exp(Z) = sum_d zeta^d / d! up to total degree cap.

    Powers are accumulated with a running division by the factorial, so only
    ratios of consecutive coefficients enter and no large factorial is ever
    formed.  Components sit in even degrees only.  The series buffer is
    allocated once, and each power is made straight into its slice.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    m = seed.dim
    # the count stops once past the budget, so an oversized cap fails at once
    # rather than after summing a binomial per degree; at m = 1 every degree
    # has one coefficient
    total, d = (cap // 2 + 1, cap + 2) if m == 1 else (0, 0)
    while d <= cap and total <= _BUDGET:
        total += math.comb(d + m - 1, m - 1)
        d += 2
    if total > _BUDGET:
        raise GuardExceeded(f"series of dim {m} to degree {cap} needs more than {_BUDGET} coefficients")
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
