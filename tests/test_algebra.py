"""Symmetric-algebra layer: basis bookkeeping, inner products, products.

Everything nontrivial is checked two ways: coordinate arithmetic against the
permanent oracle, the convolution product against the splitting product, and
both against small hand-computed values.
"""

import itertools
import math
import random
import weakref

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
    # large degrees stay finite and agree with a log-gamma sum
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
        w[i] = math.prod(math.sqrt(math.comb(d + e, e)) for d, e in zip(D, entry) if e)
    return idx, w


def test_rank_is_basis_position():
    for m in range(1, 6):
        for d in range(0, 31, 3):
            rows = algebra._basis_rows(m, d)
            assert np.array_equal(algebra._rank(rows, d), np.arange(len(rows)))
            got = [tuple(r) for r in rows.tolist()]
            assert got == sorted(set(got), reverse=True) == fp.enumerate_basis(m, d)
            assert len(got) == fp.basis_size(m, d) and all(sum(r) == d for r in got)
    # the binomial tables grow with n and serve smaller n as slices
    for n, k in ((50, 3), (4, 3), (20, 20), (0, 1)):
        table = algebra._binomials(n, k)
        assert not table.flags.writeable
        assert table.tolist() == [[math.comb(i, j) for j in range(k + 1)] for i in range(n + 1)]


def test_basis_rows_are_fresh_graded_lex_arrays():
    for m in range(1, 7):
        # m = 6 up to degree 24, as its degree-40 basis alone has 1.2 million rows
        for d in range(25 if m == 6 else 41):
            rows = algebra._basis_rows(m, d)
            assert rows.dtype == np.intp and rows.shape == (fp.basis_size(m, d), m)
            assert rows.min() >= 0 and (rows.sum(axis=1) == d).all()
            # strictly descending lexicographic: rows read as base-(d + 1) numbers fall
            keys = rows @ (d + 1) ** np.arange(m - 1, -1, -1)
            assert (np.diff(keys) < 0).all(), (m, d)
            again = algebra._basis_rows(m, d)
            assert rows.flags.writeable and not np.shares_memory(rows, again)
            rows[...] = -1
            assert np.array_equal(algebra._basis_rows(m, d), again)


def test_grown_table_fills_only_new_rows():
    filled = []

    def fill(start, stop):
        filled.append((start, stop))
        return np.arange(start, stop, dtype=float)

    key = ("test_grown",)
    try:
        for n in (3, 5, 4, 20, 21):
            table = algebra._grown(key, n, fill)
            assert not table.flags.writeable and table.tolist() == list(range(n + 1))
        assert filled == [(0, 4), (4, 6), (6, 21), (21, 22)]
        # the spare room at least doubles whenever it runs out: 4, 8, 21, 42
        assert len(algebra._grown_tables[key].base) == 42
    finally:
        del algebra._grown_tables[key]


def _assert_reference_plan(plan, m, d_src, entries):
    """Each row of the plans for entries (any degrees) is the loop reference's table."""
    for d_ent in sorted({sum(entry) for entry in entries}):
        mask = np.array([E in entries for E in fp.enumerate_basis(m, d_ent)])
        idx, w = plan(m, d_src, d_ent, None if mask.all() else mask.tobytes())
        rows = [E for E, keep in zip(fp.enumerate_basis(m, d_ent), mask) if keep]
        # stacked as 2-D arrays exactly when the product scatters them at once
        stacked = algebra._stacked(len(rows), fp.basis_size(m, d_src))
        assert len(idx) == len(w) == len(rows) and isinstance(idx, np.ndarray) == isinstance(w, np.ndarray) == stacked
        for r, entry in enumerate(rows):
            ref_idx, ref_w = _loop_scatter_map(m, d_src, entry)
            assert idx[r].dtype == ref_idx.dtype and w[r].dtype == ref_w.dtype
            assert not idx[r].flags.writeable and not w[r].flags.writeable
            assert np.array_equal(idx[r], ref_idx) and np.array_equal(w[r], ref_w), (m, d_src, entry)


def test_scatter_tables_match_loop_reference():
    # target degrees 1 to 43, entries of degrees 1 to 3; at m = 5 the
    # reference loop costs about 0.8 s per entry, so it takes three entries
    plan = algebra._scatter_plan.__wrapped__  # uncached, so the grid leaves no plans behind
    grid = {m: (range(41), fp.enumerate_basis(m, 1) + fp.enumerate_basis(m, 2) + fp.enumerate_basis(m, 3)[::4])
            for m in (1, 2, 3)}
    grid[4] = (range(25), fp.enumerate_basis(4, 1) + fp.enumerate_basis(4, 2))
    grid[5] = (range(25), [(0, 0, 0, 0, 1), (0, 1, 0, 1, 0), (2, 0, 1, 0, 0)])
    # the degree-2 entries of a Gaussian series further out, whose factor
    # tables the lower source degrees have already grown
    extra = {3: (range(46, 81, 6), fp.enumerate_basis(3, 2)), 4: ((30, 39, 48), fp.enumerate_basis(4, 2)),
             # raises on the last coordinates, which the position rule reaches last
             5: ((0, 1, 6, 13, 20), [(0, 0, 0, 0, 2), (1, 0, 0, 0, 1), (0, 0, 0, 1, 1)])}
    for degrees, entries in list(grid.values()) + list(extra.values()):
        for d_src in degrees:
            _assert_reference_plan(plan, len(entries[0]), d_src, entries)


def test_scatter_tables_bit_identical_in_any_build_order():
    # supports of 1 to 4 coordinates at source degrees 4 to 60, asked for in
    # shuffled order, so each exponent's factor table grows and is read at
    # degrees below the largest it has served
    cases = [(m, d_src, entry)
             for m, degrees, entries in (
                 (2, (4, 19, 20, 35, 60), [(1, 0), (0, 2), (1, 1), (2, 1)]),
                 (3, (10, 18, 25, 40), [(0, 1, 0), (2, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 1)]),
                 (4, (17, 22, 30), [(0, 0, 0, 1), (1, 0, 1, 0), (0, 2, 1, 0), (1, 1, 0, 1), (1, 1, 1, 1)]),
                 (5, (16, 21, 26), [(0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (1, 1, 1, 1, 0)]))
             for d_src in degrees for entry in entries]
    random.Random(71).shuffle(cases)
    algebra._scatter_plan.cache_clear()
    for key in [key for key in algebra._grown_tables if key[0] == "binomial_roots"]:
        del algebra._grown_tables[key]
    served = {}
    for m, d_src, entry in cases:
        _assert_reference_plan(algebra._scatter_plan, m, d_src, [entry])
        for e in set(entry) - {0}:
            served[e] = max(served.get(e, 0), d_src)
    # one table per exponent, one factor per source degree up to the largest served
    assert {key[1]: len(w) for key, w in algebra._grown_tables.items() if key[0] == "binomial_roots"} == {
        e: d + 1 for e, d in served.items()}


def _exact_root(square: int) -> float:
    """sqrt(square), from the exact integer root of square * 2^200, rounded once."""
    return math.isqrt(square << 200) / 2**100


def test_plan_weights_are_exact_roots_within_an_ulp():
    # a weight hangs on the entry's nonzero exponents and the source row's values
    # there, each below 256 and so packed into one key: one weight per key is
    # checked, and every other weight under that key must equal it
    plan, seen = algebra._scatter_plan.__wrapped__, {}
    for m, top in ((1, 200), (2, 120), (3, 80), (4, 40), (5, 24)):
        for d_src, d_ent in itertools.product(range(top + 1), (1, 2, 3)):
            src = algebra._basis_rows(m, d_src)
            for entry, w in zip(fp.enumerate_basis(m, d_ent), plan(m, d_src, d_ent, None)[1]):
                on = np.flatnonzero(entry)
                keys = src[:, on] @ 256 ** np.arange(len(on))
                seen.setdefault(tuple(np.take(entry, on).tolist()), []).append((keys, w))
    for ent, parts in seen.items():
        keys, weights = map(np.concatenate, zip(*parts))
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        assert np.array_equal(weights, weights[first][inverse])
        for key, w in zip(uniq.tolist(), weights[first].tolist()):
            square = math.prod(math.comb((key >> 8 * j) % 256 + e, e) for j, e in enumerate(ent))
            assert abs(w / _exact_root(square) - 1) <= 1e-15, (ent, key)


def test_oracle_weights_are_exact_roots_at_every_degree():
    # the oracle routes' weights were log-gamma sums above total degree 20,
    # 1.1e-13 off the exact root at source degree 188, exponent 2
    assert abs(algebra._sqrt_multibinom((188,), (2,)) / _exact_root(math.comb(190, 2)) - 1) <= 1e-15
    for D, E in (((30, 25, 14), (2, 0, 1)), ((60, 60, 50), (1, 1, 1)), ((3, 600), (0, 600))):
        square = math.prod(math.comb(d + e, e) for d, e in zip(D, E))
        assert abs(algebra._sqrt_multibinom(D, E) / _exact_root(square) - 1) <= 1e-15
    for D in ((30, 25, 14), (120,), (60, 60, 50), (300,)):
        square = math.prod(math.factorial(d) for d in D)
        assert abs(fp.normalization(D) / _exact_root(square) - 1) <= 1e-15
    # 301! has 2050 bits, so its root would pass the float range; a huge
    # exponent fails at once, before its factorial is formed
    for D in ((301,), (0, 10**9)):
        with pytest.raises(OverflowError, match="overflows"):
            fp.normalization(D)


def test_extreme_degree_product_stays_finite():
    # C(1200, 600) needs 1196 bits, past the float range math.sqrt converts to
    power = fp.GradedElement(1, {600: [1.0]}, 600)
    got = fp.symmetric_product(power, power, cap=1200).component(1200)[0]
    assert math.isfinite(got.real) and got.imag == 0
    assert abs(got.real / _exact_root(math.comb(1200, 600)) - 1) <= 1e-15


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
                (idx,), (w,) = algebra._scatter_map(m, d_spread, ent_basis[k : k + 1], algebra._basis_rows(m, d_spread))
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
                        assert got._nonzero_counts() == _fresh_counts(want)
                        assert not any(v.flags.writeable for v in got.components.values())


def test_symmetric_product_into_out_matches_fresh_bits():
    rng = np.random.default_rng(67)
    for m in (1, 2, 3):
        for da, db in (([2], [2]), ([0, 1, 3], [1, 2])):
            a, b = _factor(rng, m, da, "dense"), _factor(rng, m, db, "single")
            want = fp.symmetric_product(a, b, cap=4)
            out = np.full(sum(len(v) for v in want.components.values()), np.nan + 0j)
            got = fp.symmetric_product(a, b, cap=4, out=out)  # stale entries are overwritten
            assert _same_bits(got, want) and np.shares_memory(got.components[want.degrees()[0]], out)
            with pytest.raises(ValueError):
                fp.symmetric_product(a, b, cap=4, out=np.zeros(len(out) + 1, dtype=complex))


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


def _plan_keys(monkeypatch, build):
    """The _scatter_plan keys that build() asks for, in order, and what it returns."""
    keys, plan = [], algebra._scatter_plan
    monkeypatch.setattr(algebra, "_scatter_plan", lambda *key: keys.append(key) or plan(*key))
    got = build()
    monkeypatch.setattr(algebra, "_scatter_plan", plan)
    return keys, got


def _scaled_factor_plan_keys(monkeypatch, seed, cap):
    """The plan keys of the power loop whose factors are scale(zeta, 1 / n), counted from their own buffers."""
    def build():
        term = fp.vacuum(seed.dim)
        for n in range(1, cap // 2 + 1):
            term = fp.symmetric_product(term, fp.scale(seed.quadratic, 1.0 / n), cap=cap)
            if 2 * n not in term.nonzero_degrees():
                break
    return _plan_keys(monkeypatch, build)[0]


def test_gaussian_series_matches_reference_power_loop_bits(monkeypatch):
    rng = np.random.default_rng(67)
    cases = []
    for m, cap in ((1, 200), (2, 160), (3, 80), (4, 24)):
        diagonal = np.diag(0.9 * rng.uniform(0.2, 1.0, m) * np.exp(1j * rng.uniform(0, 2 * np.pi, m)))
        cases += [(cap, fp.random_symmetric(m, rng, norm=0.8).matrix), (cap, diagonal)]
    # zero entries in zeta, so the plans take a nonzero mask
    sparse = fp.random_symmetric(3, rng, norm=0.8).matrix.copy()
    sparse[0, 1] = sparse[1, 0] = sparse[2, 2] = 0.0
    # zeta's v_2^2 entry is the smallest subnormal, and zeta / n underflows
    # to zero from n = 2 on, so those factors have fewer nonzero entries than zeta
    cases += [(80, sparse), (40, np.diag([0.9, 1e-323]))]
    for cap, a in cases:
        seed = fp.GaussianSeed.from_matrix(a)
        m = seed.dim
        keys, got = _plan_keys(monkeypatch, lambda: fp.gaussian_series(seed, cap=cap))
        want = fp.GradedElement(m, _reference_gaussian_components(seed, cap), cap, True)
        assert _same_bits(got, want), (m, cap)
        assert keys == _scaled_factor_plan_keys(monkeypatch, seed, cap), (m, cap)
    assert any(key[3] is not None for key in _plan_keys(monkeypatch, lambda: fp.gaussian_series(
        fp.GaussianSeed.from_matrix(sparse), cap=8))[0])
    # zeta has 2 nonzero entries and zeta / 2 one: the second product
    # scatters from that one, where 2 would have picked zeta's two
    tiny = fp.GaussianSeed.from_matrix(np.diag([0.9, 1e-323]))
    assert tiny.quadratic._nonzero_counts() == {2: 2}
    assert _plan_keys(monkeypatch, lambda: fp.gaussian_series(tiny, cap=6))[0] == [
        (2, 2, 0, None), (2, 2, 2, bytes([1, 0, 0])), (2, 2, 4, bytes([1, 0, 0, 0, 0]))]


def test_scatter_plans_hold_only_their_rows(monkeypatch):
    basis_rows, bases, rows = algebra._basis_rows, [], []
    monkeypatch.setattr(algebra, "_basis_rows", lambda m, d: bases.append(weakref.ref(out := basis_rows(m, d))) or out)
    scatter_map = algebra._scatter_map
    monkeypatch.setattr(algebra, "_scatter_map", lambda m, d_src, entries, src: rows.extend(
        (d_src, entry) for entry in entries) or scatter_map(m, d_src, entries, src))
    algebra._scatter_plan.cache_clear()
    # a dense m = 3 series: vacuum x zeta, zeta x zeta / 2, then zeta spread
    # over each higher power, one plan each
    cap = 40
    seed = fp.GaussianSeed.from_map(fp.random_symmetric(3, np.random.default_rng(5), norm=0.5))
    assert seed.quadratic._nonzero_counts() == {2: 6}
    fp.gaussian_series(seed, cap)
    keys = [(3, 2, 0, None), (3, 2, 2, None)] + [(3, d, 2, None) for d in range(4, cap - 1, 2)]
    info = algebra._scatter_plan.cache_info()
    assert info.currsize == len(keys)
    held = sum(table.nbytes for key in keys for rows in algebra._scatter_plan(*key) for table in rows)
    assert algebra._scatter_plan.cache_info().hits == info.hits + len(keys)
    # 16 B per (source coefficient, nonzero entry)
    assert held == 16 * sum(fp.basis_size(3, d_ent) * fp.basis_size(3, d_src) for _, d_src, d_ent, _ in keys)
    # a plan build caches no basis array: every source basis the plans read
    # is freed once its plan is built
    assert len(bases) >= len(keys) and all(ref() is None for ref in bases)
    # conjugation(4) has 4 nonzero degree-2 entries of 10: the plans build a
    # row for each of them and none for the others
    rows.clear()
    fp.gaussian_series(fp.GaussianSeed.from_map(fp.conjugation(4)), 12)
    diagonal = [entry for entry in fp.enumerate_basis(4, 2) if 2 in entry]
    assert sorted(rows) == sorted([(2, (0, 0, 0, 0))] + [(d, entry) for d in range(2, 11, 2) for entry in diagonal])


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


def test_product_routes_agree_on_horizon_and_truncation():
    # factors nonzero only in degree 1 but stored to degree 3: every product
    # degree fits under cap 4, so nothing is dropped and the product is exact
    a = fp.GradedElement(2, {1: [1.0, 2.0]}, 3)
    b = fp.GradedElement(2, {1: [0.5, -1.0]}, 3)
    for prod in (fp.symmetric_product, fp.antidual_product):
        ab = prod(a, b, cap=4)
        assert (ab.max_degree, ab.truncated) == (4, False), prod.__name__
        rep = fp.pairing_1(ab, ab)
        assert rep.converged and rep.value == pytest.approx(8.5, rel=1e-14)
    # a truncated factor caps both at its own horizon
    t = fp.GradedElement(2, {0: [1.0], 1: [0.5, 0.5]}, 2, truncated=True)
    assert [(p.max_degree, p.truncated) for p in (fp.symmetric_product(a, t), fp.antidual_product(a, t))] == [(2, True)] * 2


def test_products_reject_a_negative_cap():
    a = fp.from_vector([1.0, 2.0])
    for prod in (fp.symmetric_product, fp.antidual_product):
        with pytest.raises(ValueError, match="cap"):
            prod(a, a, cap=-1)
        assert prod(a, a, cap=0).max_degree == 0, prod.__name__


def test_product_of_truncations_knows_only_their_horizon():
    # exp(0.3 v^2 / 2) exp(0.4 v^2 / 2) = exp(0.7 v^2 / 2), but two truncations
    # at degree 20 give the product's coefficients only up to degree 20
    def series(a, cap):
        return fp.gaussian_series(fp.GaussianSeed.from_matrix([[a]]), cap)

    exact = series(0.7, 64)
    top = fp.GradedElement(1, {d: [1.0] for d in range(41)}, 40)
    for prod in (fp.symmetric_product, fp.antidual_product):
        ab = prod(series(0.3, 20), series(0.4, 20), cap=64)
        assert (ab.max_degree, ab.truncated, ab.degrees()) == (20, True, list(range(0, 21, 2))), prod.__name__
        for d in ab.degrees():
            assert ab.component(d)[0] == pytest.approx(exact.component(d)[0], rel=1e-13)
        # the degrees past 20 the product cannot know are refused, not summed
        with pytest.raises(fp.InsufficientHorizon):
            fp.pairing_1(top, ab)
        with pytest.raises(fp.InsufficientHorizon):
            fp.evaluate(ab, top)


def test_antidual_product_defining_identity():
    # [ab](phi) computed through the coproduct expansion, from the definition
    assert suites.worst(suites.coproduct_evaluation_identity, np.random.default_rng(33), 12) <= 1e-10


def test_gaussian_truncations_multiply_like_exponentials():
    rng = np.random.default_rng(7)
    m = 2
    x = fp.random_symmetric(m, rng, norm=0.5)
    y = fp.random_symmetric(m, rng, norm=0.4)
    cap = 30
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


def test_element_rejects_a_negative_horizon():
    for degree in (-1, -3):
        with pytest.raises(ValueError, match="max_degree"):
            fp.GradedElement(2, {}, max_degree=degree, truncated=True)
    assert fp.GradedElement(2, {}, max_degree=0, truncated=True).degrees() == []


def test_public_constructor_never_aliases_caller_arrays():
    # a writable array is copied, not frozen in place
    x = np.zeros(3, dtype=complex)
    el = fp.GradedElement(2, {2: x}, 2)
    assert x.flags.writeable and el.components[2] is not x
    x[0] = 1.0
    assert el.nonzero_degrees() == [] and not el.components[2].any()
    # a read-only view of a writable base is copied too, so writing the base
    # neither changes the element nor leaves its cached counts stale
    base = np.zeros(3, dtype=complex)
    view = base[:]
    view.flags.writeable = False
    el = fp.GradedElement(2, {2: view}, 2)
    assert el.nonzero_degrees() == []
    base[1] = 1.0
    assert el.nonzero_degrees() == [] and not el.components[2].any()
    assert fp.symmetric_product(el, fp.vacuum(2)).nonzero_degrees() == []
    # even a read-only complex array that owns its data is copied
    owner = np.arange(3, dtype=complex)
    owner.flags.writeable = False
    assert not np.shares_memory(fp.GradedElement(2, {2: owner}, 2).components[2], owner)


def test_element_equality_is_by_value_and_elements_are_unhashable():
    a, b = fp.from_vector([1.0, 2.0]), fp.from_vector([1.0, 2.0])
    assert a == b and not a != b
    # the nonzero-count cache takes no part, nor does the constructor used
    a.nonzero_degrees()
    assert a == b and fp.scale(b, 1.0) == a
    assert a != fp.from_vector([1.0, 3.0])
    assert a != fp.GradedElement(2, {1: [1.0, 2.0]}, max_degree=2)
    assert a != fp.GradedElement(2, {1: [1.0, 2.0]}, max_degree=1, truncated=True)
    # a stored zero degree is not an absent one
    assert a != fp.GradedElement(2, {0: [0.0], 1: [1.0, 2.0]}, max_degree=1)
    assert fp.vacuum(2) != fp.vacuum(3) and a != "a" and a != [a]
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def _fresh_counts(el):
    """Nonzero entries per nonzero degree, from a fresh scan."""
    return {d: n for d in el.degrees() if (n := np.count_nonzero(el.components[d]))}


def test_nonzero_counts_come_from_the_elements_own_arrays():
    rng = np.random.default_rng(29)
    a = random_element(rng, 2, 4, 1.0, truncated=False)
    b = random_element(rng, 2, 3, 1.0, truncated=False)
    assert a.nonzero_degrees() == [0, 1, 2, 3, 4]
    # scaling by zero and underflow give zero components, whatever the input's counts
    assert fp.scale(a, 0).nonzero_degrees() == []
    tiny = fp.GradedElement(1, {0: np.array([1e-320])}, 0)
    assert tiny.nonzero_degrees() == [0]
    assert fp.scale(tiny, 1e-10).nonzero_degrees() == []
    assert fp.add(a, fp.scale(a, -1.0)).nonzero_degrees() == []
    for el in (fp.scale(a, 0.5j), fp.add(a, b), fp.symmetric_product(a, b, cap=5),
               fp.symmetric_product(fp.scale(a, 0), b)):
        first = el.nonzero_degrees()
        assert el._nonzero_counts() == _fresh_counts(el) and first == list(_fresh_counts(el))
        assert not any(v.flags.writeable for v in el.components.values())


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
