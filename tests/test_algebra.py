"""Symmetric-algebra layer: basis bookkeeping, inner products, products.

Everything nontrivial is checked two ways: coordinate arithmetic against the
permanent oracle, the convolution product against the splitting product, and
both against small hand-computed values.
"""

import math

import numpy as np
import pytest

import fockpair as fp
from fockpair import algebra, suites
from fockpair.suites import coeff_gap, random_element


def rnd_vec(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


# ---------------------------------------------------------------- basis


def test_basis_enumeration_fixed_order():
    assert fp.enumerate_basis(1, 3) == [(3,)]
    assert fp.enumerate_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert fp.enumerate_basis(3, 0) == [(0, 0, 0)]
    for m in (1, 2, 3, 4):
        for d in range(7):
            got = fp.enumerate_basis(m, d)
            assert len(got) == fp.basis_size(m, d) == math.comb(d + m - 1, m - 1)
            assert all(len(e) == m and sum(e) == d for e in got)
            assert len(set(got)) == len(got)


def test_basis_order_stable_and_graded_lex():
    # descending lexicographic within a fixed degree
    got = fp.enumerate_basis(3, 2)
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert got == sorted(got, reverse=True)


def test_normalization_values():
    assert fp.normalization((0, 0, 0)) == 1.0
    assert fp.normalization((2, 1)) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert fp.normalization((4, 0, 3)) == pytest.approx(12.0, rel=1e-15)
    # large-degree path stays finite and accurate against lgamma
    big = (30, 25, 14)
    expect = math.exp(0.5 * sum(math.lgamma(d + 1) for d in big))
    assert fp.normalization(big) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------- inner product and permanent oracle


def test_vacuum_is_unit():
    one = fp.vacuum(3)
    assert fp.inner_product(one, one) == pytest.approx(1.0)


def test_disjoint_degrees_orthogonal():
    m = 2
    a = fp.GradedElement(m, {1: np.array([1.0, 2.0])}, 1)
    b = fp.GradedElement(m, {2: np.array([1.0, 0.0, 3.0])}, 2)
    padded = fp.add(a, fp.scale(b, 0.0))
    assert fp.inner_product(padded, b) == 0
    assert fp.inner_product(a, b) == 0


def test_inner_product_conjugate_linear_in_first_slot():
    rng = np.random.default_rng(5)
    m = 3
    a = random_element(rng, m, 3, 1.0, truncated=False)
    b = random_element(rng, m, 3, 1.0, truncated=False)
    s = 0.7 - 1.3j
    lhs = fp.inner_product(fp.scale(a, s), b)
    assert lhs == pytest.approx(np.conj(s) * fp.inner_product(a, b), rel=1e-12)
    assert fp.inner_product(a, fp.scale(b, s)) == pytest.approx(s * fp.inner_product(a, b), rel=1e-12)


def test_permanent_oracle_fixed_values():
    x = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    assert fp.permanent_inner_oracle([x, x], [x, x]) == pytest.approx(2.0)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert fp.permanent_inner_oracle([e1], [e2]) == 0
    rng = np.random.default_rng(0)
    xv, yv = rnd_vec(rng, 3), rnd_vec(rng, 3)
    got = fp.permanent_inner_oracle([xv] * 3, [yv] * 3)
    assert got == pytest.approx(6.0 * np.vdot(xv, yv) ** 3, rel=1e-12)


def test_permanent_oracle_guard_and_mismatch():
    x = np.array([1.0])
    with pytest.raises(fp.GuardExceeded):
        fp.permanent_inner_oracle([x] * 9, [x] * 9)
    with pytest.raises(fp.DimensionMismatch):
        fp.permanent_inner_oracle([x], [x, x])


def test_orthonormal_basis_gram_identity():
    # coordinates of v^D built independently through the multinomial embed
    for m in (1, 2, 3):
        for d in range(7):
            entries = fp.enumerate_basis(m, d)
            vecs = []
            for entry in entries:
                factors = []
                for i, e in enumerate(entry):
                    factors.extend([np.eye(m)[i]] * e)
                vecs.append(fp.embed_product(factors, dim=m).component(d) / fp.normalization(entry))
            gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
            assert np.abs(gram - np.eye(len(entries))).max() < 1e-12


def test_oracle_equivalence_random():
    assert suites.worst(suites.inner_product_vs_permanent, np.random.default_rng(42), 500) < 1e-10


def test_power_inner_product_formula():
    rng = np.random.default_rng(3)
    for d in range(1, 7):
        m = int(rng.integers(1, 4))
        x, y = rnd_vec(rng, m), rnd_vec(rng, m)
        lhs = fp.inner_product(fp.embed_product([x] * d), fp.embed_product([y] * d))
        assert lhs == pytest.approx(math.factorial(d) * np.vdot(x, y) ** d, rel=1e-10)


# ---------------------------------------------------------------- embed and symmetric product


def test_embed_product_small_cases():
    one = fp.embed_product([], dim=2)
    assert coeff_gap(one, fp.vacuum(2)) == 0
    assert one.component(0)[0] == 1.0
    with pytest.raises(ValueError):
        fp.embed_product([])

    m = 3
    v1 = np.eye(m)[0]
    el = fp.from_vector(v1)
    assert np.allclose(el.component(1), v1)

    v2 = np.eye(2)[1]
    both = fp.embed_product([np.eye(2)[0], v2])
    idx = fp.enumerate_basis(2, 2).index((1, 1))
    expect = np.zeros(3)
    expect[idx] = 1.0
    assert np.allclose(both.component(2), expect)


def test_product_unit_and_v1_squared():
    rng = np.random.default_rng(1)
    b = random_element(rng, 2, 4, 1.0, truncated=False)
    assert coeff_gap(fp.symmetric_product(fp.vacuum(2), b), b) < 1e-15

    v1 = fp.from_vector(np.eye(2)[0])
    sq = fp.symmetric_product(v1, v1)
    idx = fp.enumerate_basis(2, 2).index((2, 0))
    expect = np.zeros(3, dtype=complex)
    expect[idx] = math.sqrt(2.0)
    assert np.allclose(sq.component(2), expect)


def test_repeated_product_matches_embed():
    rng = np.random.default_rng(9)
    for d in range(2, 6):
        m = int(rng.integers(1, 4))
        x = rnd_vec(rng, m)
        acc = fp.from_vector(x)
        for _ in range(d - 1):
            acc = fp.symmetric_product(acc, fp.from_vector(x))
        assert coeff_gap(acc, fp.embed_product([x] * d)) < 1e-10


def test_product_commutative_associative():
    assert suites.worst(suites.product_commutative_associative, np.random.default_rng(11), 10) < 1e-12


def test_product_cap_flags_truncation():
    rng = np.random.default_rng(2)
    a = random_element(rng, 2, 3, 1.0, truncated=False)
    b = random_element(rng, 2, 3, 1.0, truncated=False)
    full = fp.symmetric_product(a, b)
    assert not full.truncated and full.max_degree == 6
    capped = fp.symmetric_product(a, b, cap=4)
    assert capped.truncated and capped.max_degree == 4
    assert coeff_gap(capped, fp.GradedElement(2, {d: full.component(d) for d in range(5)}, 4)) < 1e-15


def _loop_scatter_map(m, d_src, entry):
    """The per-element scatter table: reference for algebra._scatter_map."""
    d_tgt = d_src + sum(entry)
    pos_tgt = algebra._basis_pos(m, d_tgt)
    src = algebra._basis(m, d_src)
    idx = np.empty(len(src), dtype=np.intp)
    w = np.empty(len(src), dtype=float)
    for i, D in enumerate(src):
        tgt = tuple(a + b for a, b in zip(D, entry))
        idx[i] = pos_tgt[tgt]
        w[i] = algebra._sqrt_multibinom(D, entry)
    return idx, w


def test_rank_is_basis_position():
    for m in range(1, 6):
        for d in range(0, 31, 3):
            rows = algebra._basis_array(m, d)
            assert np.array_equal(algebra._rank(rows, d), np.arange(len(rows)))
            got = [tuple(r) for r in rows.tolist()]
            assert got == sorted(set(got), reverse=True) == fp.enumerate_basis(m, d)
            assert len(got) == fp.basis_size(m, d) and all(sum(r) == d for r in got)


def test_scatter_tables_match_loop_reference():
    # target degrees 1 to 43 cover both sides of _EXACT_DEGREE; at m = 5 the
    # reference loop costs about 0.8 s per entry, so it takes three entries
    table = algebra._scatter_map.__wrapped__  # uncached, so the grid leaves no tables behind
    grid = {m: (40, fp.enumerate_basis(m, 1) + fp.enumerate_basis(m, 2) + fp.enumerate_basis(m, 3)[::4])
            for m in (1, 2, 3)}
    grid[4] = (24, fp.enumerate_basis(4, 1) + fp.enumerate_basis(4, 2))
    grid[5] = (24, [(0, 0, 0, 0, 1), (0, 1, 0, 1, 0), (2, 0, 1, 0, 0)])
    for m, (top, entries) in grid.items():
        for d_src in range(top + 1):
            for entry in entries:
                idx, w = table(m, d_src, entry)
                ref_idx, ref_w = _loop_scatter_map(m, d_src, entry)
                assert idx.dtype == ref_idx.dtype and w.dtype == ref_w.dtype
                assert np.array_equal(idx, ref_idx) and np.array_equal(w, ref_w), (m, d_src, entry)


def _scan_nonzero(el):
    return [d for d in el.degrees() if np.any(el.components[d])]


def _reference_symmetric_product(a, b, cap=64):
    """The graded product as first written: reference for algebra.symmetric_product."""
    m = a.dim
    comps = {}
    dropped = False
    for da in _scan_nonzero(a):
        arr_a = a.components[da]
        for db in _scan_nonzero(b):
            if da + db > cap:
                dropped = True
                continue
            arr_b = b.components[db]
            tgt = comps.setdefault(da + db, np.zeros(fp.basis_size(m, da + db), dtype=complex))
            if np.count_nonzero(arr_a) <= np.count_nonzero(arr_b):
                entries, spread, d_spread = arr_a, arr_b, db
            else:
                entries, spread, d_spread = arr_b, arr_a, da
            ent_basis = algebra._basis(m, da + db - d_spread)
            for k in np.flatnonzero(entries):
                idx, w = algebra._scatter_map(m, d_spread, ent_basis[k])
                tgt[idx] += entries[k] * w * spread
    truncated = a.truncated or b.truncated or dropped
    horizon = min(cap, a.max_degree + b.max_degree)
    comps = {d: v for d, v in comps.items() if d <= horizon}
    return fp.GradedElement(m, comps, horizon, truncated)


def _same_bits(x, y):
    """Equal degrees, horizons, flags and coefficient bits (signed zeros included)."""
    return (x.dim == y.dim and x.max_degree == y.max_degree and x.truncated == y.truncated
            and x.degrees() == y.degrees()
            and all(np.array_equal(x.components[d].view(np.uint64), y.components[d].view(np.uint64))
                    for d in x.degrees()))


def _factor(rng, m, degrees, kind):
    comps = {}
    for d in degrees:
        n = fp.basis_size(m, d)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if kind == "real":  # imaginary parts +0.0 beside negative reals
            v = v.real + 0j
        elif kind == "diagonal":  # the pure powers v_i^d only
            keep = [i for i, entry in enumerate(fp.enumerate_basis(m, d)) if max(entry) == d]
            v[np.setdiff1d(np.arange(n), keep)] = 0.0
        elif kind == "single":
            v[np.arange(n) != rng.integers(n)] = 0.0
        comps[d] = v
    return fp.GradedElement(m, comps, max(degrees))


def test_symmetric_product_matches_reference_bits():
    rng = np.random.default_rng(61)
    shapes = [([1], [1]), ([2], [3]), ([0, 1, 3], [1, 2]), ([0, 2, 4], [2]), ([1, 2, 3], [0, 1, 2, 3])]
    kinds = ["dense", "real", "diagonal", "single"]
    for m in (1, 2, 3, 4):
        for da, db in shapes:
            for ka in kinds:
                for kb in kinds:
                    a, b = _factor(rng, m, da, ka), _factor(rng, m, db, kb)
                    top = max(da) + max(db)
                    for cap in (64, top - 1, top // 2):  # the smaller caps drop degrees
                        got = fp.symmetric_product(a, b, cap=cap)
                        want = _reference_symmetric_product(a, b, cap=cap)
                        assert _same_bits(got, want), (m, da, db, ka, kb, cap)
                        assert got.nonzero_degrees() == _scan_nonzero(want)


def _reference_gaussian_components(seed, cap):
    """The power loop of gaussian_series over the reference product."""
    comps = {0: np.ones(1, dtype=complex)}
    term = fp.vacuum(seed.dim)
    n = 0
    while 2 * (n + 1) <= cap:
        n += 1
        term = _reference_symmetric_product(term, fp.scale(seed.quadratic, 1.0 / n), cap=cap)
        arr = term.component(2 * n)
        if not np.any(arr):
            break
        comps[2 * n] = arr
    return comps


def test_gaussian_series_matches_reference_power_loop_bits():
    rng = np.random.default_rng(67)
    for m, cap in ((1, 200), (2, 160), (3, 80), (4, 24)):
        diagonal = np.diag(0.9 * rng.uniform(0.2, 1.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m)))
        for a in (fp.random_symmetric(m, rng, norm=0.8).matrix, diagonal):
            seed = fp.GaussianSeed.from_matrix(a)
            got = fp.gaussian_series(seed, cap=cap)
            want = fp.GradedElement(m, _reference_gaussian_components(seed, cap), cap, True)
            assert _same_bits(got, want), (m, cap)


# ---------------------------------------------------------------- coproduct and antidual product


def test_coproduct_oracle_small_cases():
    assert fp.coproduct_oracle((0, 0)) == [((0, 0), (0, 0), 1)]
    assert fp.coproduct_oracle((1,)) == [((0,), (1,), 1), ((1,), (0,), 1)]
    assert fp.coproduct_oracle((2,)) == [((0,), (2,), 1), ((1,), (1,), 2), ((2,), (0,), 1)]


def test_coproduct_counit_and_binomial_weights():
    for entry in [(3, 1), (2, 2, 1), (4,)]:
        rows = fp.coproduct_oracle(entry)
        # counit: weight 1 on the (0, D) and (D, 0) splits
        zero = tuple([0] * len(entry))
        assert (zero, entry, 1) in rows
        assert (entry, zero, 1) in rows
        for bpart, cpart, w in rows:
            assert tuple(b + c for b, c in zip(bpart, cpart)) == entry
            assert w == math.prod(math.comb(d, b) for d, b in zip(entry, bpart))
        # total weight is 2^degree
        assert sum(w for _, _, w in rows) == 2 ** sum(entry)


def test_coproduct_guard():
    with pytest.raises(fp.GuardExceeded):
        fp.coproduct_oracle((9,))


def test_antidual_product_matches_symmetric_product():
    assert suites.worst(suites.product_routes_agree, np.random.default_rng(21), 25) < 1e-12


def test_antidual_product_defining_identity():
    # [ab](phi) computed through the coproduct expansion, from the definition
    assert suites.worst(suites.coproduct_evaluation_identity, np.random.default_rng(33), 12) <= 1e-10


def test_gaussian_truncations_multiply_like_exponentials():
    rng = np.random.default_rng(7)
    m = 2
    x = fp.random_symmetric(m, rng, norm=0.5)
    y = fp.random_symmetric(m, rng, norm=0.4)
    cap = 30  # past _EXACT_DEGREE, where the weights come from log-gamma sums
    ex = fp.gaussian_series(fp.GaussianSeed.from_map(x), cap=cap)
    ey = fp.gaussian_series(fp.GaussianSeed.from_map(y), cap=cap)
    combined = fp.AntilinearSymmetricMap(x.matrix + y.matrix)
    exy = fp.gaussian_series(fp.GaussianSeed.from_map(combined), cap=cap)
    prod = fp.antidual_product(ex, ey, cap=cap)
    assert max(float(np.linalg.norm(prod.component(d) - exy.component(d))) for d in range(cap + 1)) < 1e-12


# ---------------------------------------------------------------- evaluation


def test_evaluate_vacuum_and_embedded():
    rng = np.random.default_rng(13)
    m = 2
    psi = random_element(rng, m, 4, 1.0, truncated=False)
    one = fp.vacuum(m)
    assert fp.evaluate(psi, one) == pytest.approx(np.conj(1.0) * psi.component(0)[0])

    phi = random_element(rng, m, 3, 1.0, truncated=False)
    assert fp.evaluate(psi, phi) == pytest.approx(fp.inner_product(phi, psi), rel=1e-12)


def test_evaluate_quadratic_eigenvalue():
    lam = 0.37 - 0.21j
    a = np.diag([lam, 0.5]).astype(complex)
    seed = fp.GaussianSeed.from_matrix(a)
    ez = fp.gaussian_series(seed, cap=8)
    v1sq = fp.embed_product([np.eye(2)[0], np.eye(2)[0]])
    assert fp.evaluate(ez, v1sq) == pytest.approx(lam, rel=1e-12)


def test_evaluate_horizon_guard():
    rng = np.random.default_rng(17)
    psi = random_element(rng, 2, 3, 1.0)
    phi = random_element(rng, 2, 5, 1.0, truncated=False)
    with pytest.raises(fp.InsufficientHorizon):
        fp.evaluate(psi, phi)
    with pytest.raises(ValueError):
        fp.evaluate(psi, random_element(rng, 2, 2, 1.0))


def test_dimension_mismatch_raises():
    a = fp.vacuum(2)
    b = fp.vacuum(3)
    with pytest.raises(fp.DimensionMismatch):
        fp.inner_product(a, b)
    with pytest.raises(fp.DimensionMismatch):
        fp.symmetric_product(a, b)
    with pytest.raises(fp.DimensionMismatch):
        fp.add(a, b)


def test_component_shape_validation():
    with pytest.raises(fp.DimensionMismatch):
        fp.GradedElement(2, {1: np.zeros(3)}, 1)
    with pytest.raises(ValueError):
        fp.GradedElement(2, {3: np.zeros(4)}, 2)


def test_add_and_scale():
    rng = np.random.default_rng(19)
    a = random_element(rng, 2, 3, 1.0, truncated=False)
    b = random_element(rng, 2, 5, 1.0, truncated=False)
    tot = fp.add(a, b)
    assert tot.max_degree == 5
    for d in range(6):
        assert np.allclose(tot.component(d), a.component(d) + b.component(d))
    half = fp.scale(a, 0.5j)
    for d in range(4):
        assert np.allclose(half.component(d), 0.5j * a.component(d))


def test_add_truncation_horizon():
    rng = np.random.default_rng(23)
    trunc = random_element(rng, 2, 3, 1.0)
    poly = random_element(rng, 2, 5, 1.0, truncated=False)
    tot = fp.add(trunc, poly)
    # the truncated summand caps trustworthy degrees at its own horizon
    assert tot.truncated and tot.max_degree == 3


def _embed_power_matrix(W, d):
    """Brute-force lift, one embed_product per column: reference for symmetric_power_matrix."""
    m = W.shape[0]
    if d == 0:
        return np.ones((1, 1), dtype=complex)
    out = np.empty((fp.basis_size(m, d), fp.basis_size(m, d)), dtype=complex)
    for j, E in enumerate(fp.enumerate_basis(m, d)):
        factors = []
        for i, e in enumerate(E):
            factors.extend([W[:, i]] * e)
        out[:, j] = fp.embed_product(factors).components[d] / fp.normalization(E)
    return out


def test_symmetric_power_matrix_matches_embed_reference():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3, 4):
        W = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        if m > 1:
            W[0, -1] = 0.0  # a zero entry, so some products vanish
        for d in range(7):
            got = fp.symmetric_power_matrix(W, d)
            want = _embed_power_matrix(W, d)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (m, d)
    with pytest.raises(ValueError):
        fp.symmetric_power_matrix(np.eye(2), -1)


def test_symmetric_power_matrix_is_functorial():
    rng = np.random.default_rng(29)
    m = 3
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    for d in range(4):
        mat = fp.symmetric_power_matrix(q, d)
        n = fp.basis_size(m, d)
        assert np.abs(mat.conj().T @ mat - np.eye(n)).max() < 1e-12
    # action matches embedding a transformed vector list
    x, y = rnd_vec(rng, m), rnd_vec(rng, m)
    direct = fp.embed_product([q @ x, q @ y]).component(2)
    lifted = fp.symmetric_power_matrix(q, 2) @ fp.embed_product([x, y]).component(2)
    assert np.allclose(direct, lifted, atol=1e-12)
