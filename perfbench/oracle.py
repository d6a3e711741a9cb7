"""Known answers for degreewise pairing series, from the spectrum alone.

For antilinear symmetric X, Y the Gaussian pairing <exp X | exp Y> has the
generating function det(I - sYX)^(-1/2) = prod_k (1 - lam_k s)^(-1/2), lam_k
the eigenvalues of compose(Y, X).  Its term at degree 2n is the coefficient
of s^n.  Each factor expands as sum_n C(2n, n) / 4^n (lam s)^n, so a whole
term sequence costs O(m N^2) here and never touches the graded algebra.

This module is a benchmark oracle only: it gives the verdict and value that a
correct series engine must report, and is deliberately not a route of the
library (the series and closed-form routes stay independent of it).

A spectrum is a sequence of complex eigenvalues.  A few plain sequences are
spectra in disguise and are built from their exact formulas instead:
(-1)^n (n+1) is lam = -1 four times, (-1)^n is lam = -1 twice, 1 is lam = 1
twice and 2^-n is lam = 1/2 twice.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# |lam| within this of 1 counts as on the unit circle
_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class Truth:
    """What a correct evaluation must say: convergent or not, and the value."""

    converges: bool
    value: complex | None


SEQUENCES = {
    "alt_linear": ((-1.0, -1.0, -1.0, -1.0), lambda n: (-1.0) ** n * (n + 1.0)),
    "alt": ((-1.0, -1.0), lambda n: (-1.0) ** n),
    "ones": ((1.0, 1.0), lambda n: np.ones_like(n, dtype=float)),
    "halves": ((0.5, 0.5), lambda n: 0.5**n),
}


def spectrum_terms(eigs, n_max: int) -> np.ndarray:
    """Coefficients c_0 .. c_n_max of prod_k (1 - lam_k s)^(-1/2)."""
    n = np.arange(1, n_max + 1)
    ratio = (2.0 * n - 1.0) / (2.0 * n)
    c = np.zeros(n_max + 1, dtype=complex)
    c[0] = 1.0
    for lam in eigs:
        b = np.concatenate(([1.0 + 0j], np.cumprod(ratio * complex(lam))))
        c = np.convolve(c, b)[: n_max + 1]
    return c


def sequence_terms(name: str, n_max: int) -> np.ndarray:
    """Exact terms of one of SEQUENCES up to index n_max."""
    return np.asarray(SEQUENCES[name][1](np.arange(n_max + 1)), dtype=complex)


def generating_value(eigs, s: float = 1.0) -> complex:
    """prod_k (1 - lam_k s)^(-1/2) on the principal branch of each factor."""
    out = 1.0 + 0j
    for lam in eigs:
        out /= cmath.sqrt(1.0 - complex(lam) * s)
    return out


def series_truth(eigs, s: float = 1.0) -> Truth:
    """Known verdict and value of sum_n c_n s^n for 0 < s <= 1.

    Inside the disc the series converges to the generating function.  On the
    circle a cluster of k equal eigenvalues mu gives terms ~ n^(k/2-1) mu^n,
    which vanish only for k = 1, and then sum only for mu != 1.  Spectra with
    more than one distinct eigenvalue on the circle are not supported.
    """
    eigs = [complex(x) for x in eigs]
    radius = max((abs(x) * s for x in eigs), default=0.0)
    if radius < 1.0 - _CIRCLE_TOL:
        return Truth(True, generating_value(eigs, s))
    if radius > 1.0 + _CIRCLE_TOL:
        return Truth(False, None)
    on_circle = [x * s for x in eigs if abs(abs(x) * s - 1.0) <= _CIRCLE_TOL]
    mu = on_circle[0]
    if any(abs(x - mu) > _CIRCLE_TOL for x in on_circle):
        raise ValueError("several distinct eigenvalues on the unit circle")
    if len(on_circle) == 1 and abs(mu - 1.0) > _CIRCLE_TOL:
        return Truth(True, generating_value(eigs, s))
    return Truth(False, None)


def abel_truth(eigs) -> Truth:
    """Known Abel limit of sum_n c_n s^n as s -> 1 from below.

    It exists when the series converges on the open unit disc and the
    generating function stays finite at s = 1, that is no eigenvalue outside
    the closed disc and none equal to 1.
    """
    eigs = [complex(x) for x in eigs]
    if any(abs(x) > 1.0 + _CIRCLE_TOL for x in eigs):
        return Truth(False, None)
    if any(abs(x - 1.0) <= _CIRCLE_TOL for x in eigs):
        return Truth(False, None)
    return Truth(True, generating_value(eigs, 1.0))


def pairing_spectrum(x_matrix, y_matrix) -> np.ndarray:
    """Eigenvalues of compose(Y, X) = B conj(A), the pairing <exp X | exp Y>."""
    return np.linalg.eigvals(np.asarray(y_matrix) @ np.conj(np.asarray(x_matrix)))


def random_symmetric(rng: np.random.Generator, m: int, norm: float) -> np.ndarray:
    """Complex symmetric m x m matrix with operator norm exactly `norm`."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    a = (g + g.T) / 2.0
    return a * (norm / np.linalg.svd(a, compute_uv=False)[0])


def random_spectrum(rng: np.random.Generator, m: int, radius: float) -> np.ndarray:
    """m eigenvalues with independent phases and the largest modulus `radius`."""
    mods = radius * np.concatenate(([1.0], rng.uniform(0.2, 1.0, m - 1)))
    return mods * np.exp(1j * rng.uniform(-np.pi, np.pi, m))
