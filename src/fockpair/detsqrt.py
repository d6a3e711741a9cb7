"""Holomorphic determinant square root on operators with positive real part.

The domain check accepts T whenever the Hermitian part (T + T^dagger)/2 is
positive definite; every eigenvalue of such a T lies in the open right half
plane, so the principal square roots of the eigenvalues are well defined and
their product gives the branch normalized to 1 at the identity.  The value is
NOT multiplicative in general; only the square identity det_sqrt(T)^2 = det(T)
is contractual.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_GV_TOL = 1e-12
_SEGMENT_STEPS = 64


def in_gv(t: np.ndarray) -> bool:
    """True when the Hermitian part of t is positive definite beyond _GV_TOL."""
    t = np.asarray(t, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("square matrix required")
    herm = (t + t.conj().T) / 2.0
    smallest = float(np.linalg.eigvalsh(herm)[0])
    return smallest > _GV_TOL


def det_sqrt(t: np.ndarray) -> complex:
    """Product of principal square roots of the eigenvalues of t."""
    t = np.asarray(t, dtype=complex)
    if not in_gv(t):
        raise DomainError("operator is outside the positive-real-part domain")
    eig = np.linalg.eigvals(t)
    return complex(np.prod(np.sqrt(eig)))


def segment_branch_check(t: np.ndarray) -> tuple[float, float]:
    """Branch-continuity diagnostics along the segment from the identity to t.

    Returns (max successive argument jump of det_sqrt along the path,
    |endpoint - stepwise analytic continuation of sqrt(det)|).  The segment
    stays inside the domain by convexity, so both should be small for a
    correctly chosen branch.
    """
    t = np.asarray(t, dtype=complex)
    m = t.shape[0]
    eye = np.eye(m)
    vals = []
    for k in range(_SEGMENT_STEPS + 1):
        s = k / _SEGMENT_STEPS
        vals.append(det_sqrt(eye + s * (t - eye)))
    jumps = [
        abs(np.angle(vals[k + 1] / vals[k])) if vals[k] != 0 else np.pi
        for k in range(_SEGMENT_STEPS)
    ]
    # continue sqrt(det) along the path by nearest-choice of sign
    w = 1.0 + 0j
    for k in range(1, _SEGMENT_STEPS + 1):
        s = k / _SEGMENT_STEPS
        d = complex(np.linalg.det(eye + s * (t - eye)))
        root = np.sqrt(d)
        w = root if abs(root - w) <= abs(-root - w) else -root
    return float(max(jumps)), float(abs(w - vals[-1]))
