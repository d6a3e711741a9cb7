"""Holomorphic determinant square root on the right-half-plane domain.

No multiplicativity test appears below: det_sqrt(AB) = det_sqrt(A)det_sqrt(B)
is false in general (branch choices interact), so it is deliberately untested.
"""

import numpy as np
import pytest

import fockpair as fp
from fockpair import suites
from fockpair.suites import random_gv_member


def test_in_gv_examples():
    assert fp.in_gv(np.eye(3))
    assert not fp.in_gv(-np.eye(3))
    assert fp.in_gv(2 * np.eye(2))
    with pytest.raises(ValueError):
        fp.in_gv(np.zeros((2, 3)))


def test_det_sqrt_normalization_and_fixed_values():
    assert fp.det_sqrt(np.eye(4)) == pytest.approx(1.0)
    assert fp.det_sqrt(2 * np.eye(2)) == pytest.approx(2.0, rel=1e-12)
    assert fp.det_sqrt(2 * np.eye(3)) == pytest.approx(2.0 ** 1.5, rel=1e-12)


def test_det_sqrt_scalar_principal_branch():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        val = 1 - np.conj(a) * b
        if val.real <= 1e-6:
            continue
        got = fp.det_sqrt(np.array([[val]]))
        assert got == pytest.approx(np.sqrt(val), rel=1e-12)
        assert got.real > 0


def test_det_sqrt_rejects_outside_domain():
    with pytest.raises(fp.DomainError):
        fp.det_sqrt(-np.eye(2))
    with pytest.raises(fp.DomainError):
        fp.det_sqrt(np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_spectra_in_right_half_plane():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        t = random_gv_member(rng, m)
        assert fp.in_gv(t)
        assert np.linalg.eigvals(t).real.min() > 0


def test_square_identity_and_segment_continuity():
    rng = np.random.default_rng(17)
    assert suites.worst(suites.det_sqrt_square_identity, rng, 200) < 1e-10
    assert suites.worst(suites.det_sqrt_segment_continuity, rng, 200) < 1e-8


def test_segment_stays_inside_convex_domain():
    # convexity: the whole segment [I, T] passes the membership test
    rng = np.random.default_rng(23)
    t = random_gv_member(rng, 5)
    for s in np.linspace(0.0, 1.0, 33):
        assert fp.in_gv(np.eye(5) + s * (t - np.eye(5)))
