"""Antilinear symmetric maps: Takagi factorization, the quadratic
correspondence, Siegel membership, and composition into linear maps."""

import math

import numpy as np
import pytest

import fockpair as fp
from fockpair import suites


def rnd_vec(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


# ---------------------------------------------------------------- construction


def test_symmetry_is_enforced():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        fp.AntilinearSymmetricMap(bad)
    ok = fp.AntilinearSymmetricMap(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert ok.dim == 2
    with pytest.raises(fp.DimensionMismatch, match="dim must be >= 1"):
        fp.AntilinearSymmetricMap(np.zeros((0, 0)))
    # a NaN makes the symmetry deviation NaN, which no tolerance test rejects
    with pytest.raises(ValueError, match="non-finite"):
        fp.AntilinearSymmetricMap(np.array([[np.nan, 0.1], [0.2, 0.3]]))


def test_apply_is_antilinear():
    rng = np.random.default_rng(0)
    z = fp.random_symmetric(3, rng)
    x = rnd_vec(rng, 3)
    s = 0.3 - 1.7j
    assert np.allclose(z.apply(s * x), np.conj(s) * z.apply(x))


def test_conjugation_properties():
    m = 3
    sig = fp.conjugation(m)
    assert np.allclose(sig.matrix, np.eye(m))
    rng = np.random.default_rng(1)
    x, y = rnd_vec(rng, m), rnd_vec(rng, m)
    # sigma^2 = I and <sigma x | sigma y> = <y | x>
    assert np.allclose(sig.apply(sig.apply(x)), x)
    assert np.vdot(sig.apply(x), sig.apply(y)) == pytest.approx(np.vdot(y, x), rel=1e-14)


# ---------------------------------------------------------------- takagi


def test_takagi_special_cases():
    zero = fp.AntilinearSymmetricMap(np.zeros((3, 3)))
    fz = fp.takagi(zero)
    assert np.allclose(fz.values, 0.0) and np.abs(fz.reconstruct()).max() < 1e-14

    ident = fp.takagi(fp.conjugation(4))
    assert np.allclose(ident.values, 1.0)
    assert np.abs(ident.reconstruct() - np.eye(4)).max() < 1e-12

    mixed = fp.takagi(fp.AntilinearSymmetricMap(np.diag([1.0, -1.0]).astype(complex)))
    assert np.allclose(sorted(mixed.values), [1.0, 1.0])
    assert np.abs(mixed.reconstruct() - np.diag([1.0, -1.0])).max() < 1e-12


def test_takagi_random_reconstruction():
    # reconstruction, unitarity, singular values and descending order
    assert suites.worst(suites.takagi_reconstruction, np.random.default_rng(123), 1000) < 1e-10


def test_takagi_columns_are_antilinear_eigenvectors():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        z = fp.random_symmetric(m, rng)
        fac = fp.takagi(z)
        for k in range(m):
            col = fac.unitary[:, k]
            assert np.abs(z.apply(col) - fac.values[k] * col).max() < 1e-9


def test_takagi_degenerate_clusters():
    # repeated singular values; a tiny value next to an exact kernel, where
    # eigenvectors of nearly equal values mix; the zero map; sign-mixed
    # diagonals
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    a = q @ np.diag([0.7, 0.7, 0.7, 0.2]) @ q.T
    cases = [(a + a.T) / 2]
    for seed in (16, 21, 37, 38):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        cases.append(q @ np.diag([1e-8, 0, 0]) @ q.T)
    cases += [np.zeros((3, 3)), -np.eye(3), np.diag([1.0, -1.0])]
    for mat in cases:
        z = fp.AntilinearSymmetricMap(mat)
        fac = fp.takagi(z)
        assert np.abs(fac.reconstruct() - z.matrix).max() < 1e-10
        assert np.abs(fac.unitary.conj().T @ fac.unitary - np.eye(z.dim)).max() < 1e-10


# ---------------------------------------------------------------- norms and membership


def test_operator_norm_values():
    assert fp.operator_norm(fp.AntilinearSymmetricMap(np.zeros((2, 2)))) == 0.0
    c = 0.3 - 0.4j
    z = fp.AntilinearSymmetricMap(c * np.eye(3))
    assert fp.operator_norm(z) == pytest.approx(abs(c), rel=1e-12)
    assert fp.operator_norm(fp.conjugation(5)) == pytest.approx(1.0, rel=1e-12)


def test_siegel_membership():
    assert fp.siegel_membership(fp.AntilinearSymmetricMap(0.5 * np.eye(2))) == "open"
    assert fp.siegel_membership(fp.conjugation(2)) == "boundary"
    assert fp.siegel_membership(fp.AntilinearSymmetricMap(2.0 * np.eye(2))) == "outside"


# ---------------------------------------------------------------- quadratic correspondence


def test_degree_two_basis_is_upper_triangle():
    # quadratic_from_map and map_from_quadratic read v_i v_j, i <= j, in this order
    for m in range(1, 7):
        i, j = np.triu_indices(m)
        pairs = [tuple(k for k, e in enumerate(D) for _ in range(e)) for D in fp.enumerate_basis(m, 2)]
        assert pairs == list(zip(i.tolist(), j.tolist()))


def test_quadratic_one_dimensional():
    a = 0.8 - 0.1j
    zeta = fp.quadratic_from_map(fp.AntilinearSymmetricMap(np.array([[a]])))
    # xi = a u^2 / 2 and u^2 = sqrt(2) v^(2), so the coordinate is a / sqrt(2)
    assert zeta.component(2)[0] == pytest.approx(a / math.sqrt(2.0), rel=1e-14)
    back = fp.map_from_quadratic(zeta)
    assert back.matrix[0, 0] == pytest.approx(a, rel=1e-14)


def test_quadratic_zero():
    zeta = fp.quadratic_from_map(fp.AntilinearSymmetricMap(np.zeros((3, 3))))
    assert np.abs(zeta.component(2)).max() == 0.0
    assert np.abs(fp.map_from_quadratic(zeta).matrix).max() == 0.0


def test_quadratic_defining_relation_on_basis():
    rng = np.random.default_rng(31)
    for _ in range(30):
        m = int(rng.integers(1, 5))
        z = fp.random_symmetric(m, rng)
        zeta = fp.quadratic_from_map(z)
        eye = np.eye(m)
        for i in range(m):
            for j in range(m):
                lhs = np.vdot(eye[j], z.apply(eye[i]))
                rhs = fp.inner_product(fp.embed_product([eye[i], eye[j]]), zeta)
                assert abs(lhs - rhs) < 1e-12


def test_quadratic_defining_relation_random_vectors():
    rng = np.random.default_rng(37)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        z = fp.random_symmetric(m, rng)
        zeta = fp.quadratic_from_map(z)
        x, y = rnd_vec(rng, m), rnd_vec(rng, m)
        lhs = np.vdot(y, z.apply(x))
        rhs = fp.inner_product(fp.embed_product([x, y]), zeta)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_quadratic_from_takagi_basis():
    # zeta = (1/2) sum_k lambda_k v_k^2 over the Takagi basis columns
    rng = np.random.default_rng(41)
    m = 3
    z = fp.random_symmetric(m, rng)
    fac = fp.takagi(z)
    expect = np.zeros(fp.basis_size(m, 2), dtype=complex)
    for k in range(m):
        col = fac.unitary[:, k]
        expect += 0.5 * fac.values[k] * fp.embed_product([col, col]).component(2)
    assert np.abs(fp.quadratic_from_map(z).component(2) - expect).max() < 1e-12


def test_map_from_quadratic_rejects_wrong_support():
    bad = fp.GradedElement(2, {1: np.array([1.0, 0.0])}, 2)
    with pytest.raises(ValueError):
        fp.map_from_quadratic(bad)


def test_roundtrip_random():
    assert suites.worst(suites.quadratic_correspondence_roundtrip, np.random.default_rng(43), 40) < 1e-12


# ---------------------------------------------------------------- composition


def test_compose_cases():
    sig = fp.conjugation(3)
    assert np.allclose(fp.compose(sig, sig), np.eye(3))
    zero = fp.AntilinearSymmetricMap(np.zeros((3, 3)))
    assert np.abs(fp.compose(sig, zero)).max() == 0.0

    rng = np.random.default_rng(47)
    z = fp.random_symmetric(4, rng)
    fac = fp.takagi(z)
    spec = np.sort(np.linalg.eigvals(fp.compose(z, z)).real)
    assert np.allclose(np.sort(np.array(fac.values) ** 2), spec, atol=1e-10)


def test_compose_matches_pointwise_action():
    rng = np.random.default_rng(53)
    x_map = fp.random_symmetric(3, rng)
    y_map = fp.random_symmetric(3, rng)
    v = rnd_vec(rng, 3)
    assert np.allclose(fp.compose(y_map, x_map) @ v, y_map.apply(x_map.apply(v)))


# ---------------------------------------------------------------- siegel identity


def siegel_identity_residual(x, y, v):
    """Deviation in the algebraic identity linking I - YX to the two defects.

    2 Re <v|(I - YX) v> = (|v|^2 - |Xv|^2) + (|v|^2 - |Yv|^2) + |Xv - Yv|^2
    holds for any pair of symmetric antilinear maps.
    """
    v = np.asarray(v, dtype=complex).ravel()
    xv = x.apply(v)
    yv = y.apply(v)
    lhs = 2.0 * np.real(np.vdot(v, v - fp.compose(y, x) @ v))
    nv = float(np.vdot(v, v).real)
    rhs = (nv - float(np.vdot(xv, xv).real)) + (nv - float(np.vdot(yv, yv).real))
    rhs += float(np.vdot(xv - yv, xv - yv).real)
    return abs(lhs - rhs)


def test_siegel_identity_trivial():
    zero = fp.AntilinearSymmetricMap(np.zeros((2, 2)))
    v = np.array([1.0, 0.0])
    assert siegel_identity_residual(zero, zero, v) < 1e-15
    t = np.eye(2) - fp.compose(zero, zero)
    assert np.vdot(v, t @ v).real * 2 == pytest.approx(2.0)


def test_siegel_identity_random():
    rng = np.random.default_rng(59)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        x = fp.random_symmetric(m, rng, norm=float(rng.uniform(0.1, 1.0)))
        y = fp.random_symmetric(m, rng, norm=float(rng.uniform(0.1, 1.0)))
        worst = max(worst, siegel_identity_residual(x, y, rnd_vec(rng, m)))
    assert worst < 1e-12


def test_siegel_identity_degenerate_direction():
    # X = Y with a unit Takagi value makes the real part vanish on that vector
    rng = np.random.default_rng(61)
    m = 3
    z = fp.random_symmetric(m, rng, norm=1.0)
    fac = fp.takagi(z)
    v = fac.unitary[:, 0]
    t = np.eye(m) - fp.compose(z, z)
    assert abs(np.vdot(v, t @ v).real) < 1e-10


def test_invertible_closed_domain_composition_in_gv():
    rng = np.random.default_rng(67)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        x = fp.random_symmetric(m, rng, norm=float(rng.uniform(0.2, 1.0)))
        y = fp.random_symmetric(m, rng, norm=float(rng.uniform(0.2, 1.0)))
        t = np.eye(m) - fp.compose(y, x)
        if np.linalg.svd(t, compute_uv=False)[-1] > 1e-6:
            assert fp.in_gv(t)
