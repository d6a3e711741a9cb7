"""Antilinear symmetric maps, their Takagi factorization, and quadratics.

A map Z x = A conj(x) with complex symmetric A is symmetric for the inner
product (conjugate-linear first slot):  <y | Z x> = <x | Z y>.  Takagi gives
A = U diag(s) U^T with unitary U and the singular values s of A; the columns
of U satisfy Z(U e_k) = s_k (U e_k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch

if TYPE_CHECKING:  # the quadratics import it when called, so takagi alone never loads algebra
    from .algebra import GradedElement

SYMMETRY_TOL = 1e-12
_BOUNDARY_TOL = 1e-10
# (i, j) of the degree-two basis v_i v_j, i <= j, in its order; read, never written
_upper = lru_cache(maxsize=None)(np.triu_indices)


@dataclass(frozen=True)
class AntilinearSymmetricMap:
    """x -> matrix @ conj(x) with matrix == matrix.T enforced at build time."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("square matrix required")
        if a.shape[0] < 1:
            raise DimensionMismatch("dim must be >= 1")
        if not np.isfinite(a).all():  # a NaN would pass the symmetry test below
            raise ValueError("matrix has non-finite entries")
        dev = np.abs(a - a.T).max()
        if dev > SYMMETRY_TOL * max(1.0, np.abs(a).max()):
            raise ValueError(f"matrix is not symmetric (deviation {dev:.3e})")
        a.flags.writeable = False
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.conj(np.asarray(x, dtype=complex))


def conjugation(m: int) -> AntilinearSymmetricMap:
    """Entrywise conjugation in the standard basis (A = identity)."""
    if m < 1:  # before np.eye, which rejects a negative m in its own words
        raise DimensionMismatch("dim must be >= 1")
    return AntilinearSymmetricMap(np.eye(m))


@dataclass(frozen=True)
class TakagiFactorization:
    """A = unitary @ diag(values) @ unitary.T, values descending (a zero may read -1e-16)."""

    unitary: np.ndarray
    values: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.unitary @ np.diag(self.values) @ self.unitary.T


def takagi(zmap: AntilinearSymmetricMap) -> TakagiFactorization:
    """Takagi factorization from one eigendecomposition of a real form.

    For A = R + iJ, u = p + iq solves A conj(u) = s u exactly when (p, q) is
    an eigenvector of M = [[R, J], [J, -R]] with eigenvalue s.  The spectrum
    of M is +-s_k, the partner of (p, q) being (-q, p), that is i u, so the m
    largest eigenpairs give s and U.  M is stored with p and q interleaved, as
    numpy lays out complex numbers: rows 2i and 2i + 1 are rows i of A and of
    -iA read as real pairs, so each eigenvector read as complex is u.

    Columns with s_k > 0 come out orthonormal.  On a kernel, or where a tiny
    s_k meets -s_k, eigh may mix a column with its partner i u; the polar
    factor (nearest unitary) of U keeps the orthonormal columns and repairs
    the rest, at no cost to A = U diag(s) U^T as their s_k is zero or tiny.
    """
    a = zmap.matrix
    m = a.shape[0]
    h = np.empty((m, 2, m), dtype=complex)
    h[:, 0], h[:, 1] = a, -1j * a
    s, v = np.linalg.eigh(h.view(float).reshape(2 * m, 2 * m))
    u = v[:, : m - 1 : -1].T.copy().view(complex).T  # the m largest, descending
    w, _, vh = np.linalg.svd(u)
    return TakagiFactorization(unitary=w @ vh, values=s[: m - 1 : -1])


def operator_norm(zmap: AntilinearSymmetricMap) -> float:
    """Largest singular value of the representing matrix."""
    return float(np.linalg.svd(zmap.matrix, compute_uv=False)[0])


def siegel_membership(zmap: AntilinearSymmetricMap) -> str:
    """'open' for norm < 1, 'boundary' within _BOUNDARY_TOL of 1, 'outside' beyond."""
    return siegel_class(operator_norm(zmap))


def siegel_class(norm: float) -> str:
    """siegel_membership of a map whose operator norm is already known."""
    if abs(norm - 1.0) <= _BOUNDARY_TOL:
        return "boundary"
    return "open" if norm < 1.0 else "outside"


def quadratic_from_map(zmap: AntilinearSymmetricMap) -> GradedElement:
    """Degree-two element zeta with <y | Z x> = <x y | zeta> for all x, y.

    In unnormalized monomials the coefficient of v_i v_j is A_ij for i < j
    and A_ii / 2 on the diagonal; converting to the orthonormal basis turns
    the diagonal into A_ii / sqrt(2).
    """
    from .algebra import GradedElement

    i, j = _upper(zmap.dim)
    out = zmap.matrix[i, j]
    out[i == j] /= np.sqrt(2.0)
    return GradedElement(zmap.dim, {2: out}, max_degree=2)


def map_from_quadratic(zeta: GradedElement) -> AntilinearSymmetricMap:
    """Inverse of quadratic_from_map."""
    if zeta.nonzero_degrees() not in ([], [2]):
        raise ValueError("quadratic element must be concentrated in degree two")
    i, j = _upper(zeta.dim)
    coef = zeta.component(2)
    a = np.zeros((zeta.dim, zeta.dim), dtype=complex)
    # off the diagonal the coefficients go in unmultiplied, signed zeros kept
    a[i, j] = a[j, i] = coef
    a[np.diag_indices(zeta.dim)] = coef[i == j] * np.sqrt(2.0)
    return AntilinearSymmetricMap(a)


def compose(y: AntilinearSymmetricMap, x: AntilinearSymmetricMap) -> np.ndarray:
    """Matrix of the linear map Y X, namely B conj(A)."""
    if y.dim != x.dim:
        raise DimensionMismatch("dims differ")
    return y.matrix @ np.conj(x.matrix)


def random_symmetric(m: int, rng: np.random.Generator, norm: float | None = None) -> AntilinearSymmetricMap:
    """Random complex symmetric map, optionally rescaled to a target norm."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = (g + g.T) / 2.0
    if norm is not None:
        top = np.linalg.svd(a, compute_uv=False)[0]
        if top > 0:
            a = a * (norm / top)
        elif norm > 0:
            a = norm * np.eye(m, dtype=complex)
    return AntilinearSymmetricMap(a)
