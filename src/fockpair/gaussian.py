"""Gaussian elements exp(Z) and their closed-form norms and pairings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import GradedElement, basis_size, scale, symmetric_product, vacuum
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


def gaussian_series(seed: GaussianSeed, cap: int = DEFAULT_CAP, budget: int = _BUDGET) -> GradedElement:
    """Truncation of exp(Z) = sum_d zeta^d / d! up to total degree cap.

    Powers are accumulated with a running division by the factorial, so only
    ratios of consecutive coefficients enter and no large factorial is ever
    formed.  Components sit in even degrees only.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    m = seed.dim
    total = sum(basis_size(m, d) for d in range(0, cap + 1, 2))
    if total > budget:
        raise GuardExceeded(f"series of dim {m} to degree {cap} needs {total} coefficients")
    zeta = seed.quadratic
    comps = {0: np.ones(1, dtype=complex)}
    term = vacuum(m)
    n = 0
    while 2 * (n + 1) <= cap:
        n += 1
        term = symmetric_product(term, scale(zeta, 1.0 / n), cap=cap)
        if 2 * n not in term.nonzero_degrees():
            break
        comps[2 * n] = term.components[2 * n]
    truncated = bool(np.any(zeta.component(2)))
    return GradedElement(m, comps, max_degree=cap, truncated=truncated)


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
