"""Graded symmetric algebra over C^m in orthonormal coordinates.

Degree-d elements are stored as coefficient vectors against the orthonormal
monomial basis indexed by multi-indices in graded-lexicographic order.  With
v^D = v_1^{d_1} ... v_m^{d_m} / sqrt(d_1! ... d_m!) the basis is orthonormal
for the inner product that is conjugate-linear in the first argument, and the
coordinate inner product is a plain conjugated dot product per degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, GuardExceeded, InsufficientHorizon

# Exact integer combinatorics below this total degree, log-gamma above.
_EXACT_DEGREE = 20

# Size guards for the brute-force oracles.
PERMANENT_GUARD = 8
COPRODUCT_GUARD = 8
_EMBED_BUDGET = 2_000_000


@lru_cache(maxsize=None)
def basis_size(m: int, d: int) -> int:
    """Dimension of the degree-d slice, binom(d + m - 1, m - 1)."""
    return math.comb(d + m - 1, m - 1)


@lru_cache(maxsize=None)
def _basis_array(m: int, d: int) -> np.ndarray:
    """Multi-indices of degree d over m variables, one per row, graded-lex order.

    The order is descending lexicographic: the first coordinate runs from d
    down to 0, and behind each value d - k come the degree-k rows over the
    remaining m - 1 variables in their own order.
    """
    if m == 1:
        out = np.array([[d]], dtype=np.intp)
    else:
        rest = np.concatenate([_basis_array(m - 1, k) for k in range(d + 1)])
        out = np.column_stack((d - rest.sum(axis=1), rest))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _basis(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _basis_array(m, d).tolist()))


@lru_cache(maxsize=None)
def _binomials(n: int, k: int) -> np.ndarray:
    """C(i, j) for 0 <= i <= n and 0 <= j <= k, exact in an integer array."""
    return np.array([[math.comb(i, j) for j in range(k + 1)] for i in range(n + 1)], dtype=np.intp)


def _rank(rows: np.ndarray, d: int) -> np.ndarray:
    """Graded-lex positions of the degree-d multi-indices in rows.

    Row D is preceded by the rows that agree with it up to some coordinate
    and are larger there.  For the coordinate with k coordinates after it,
    whose entries in D add up to t, the hockey-stick identity counts them as
    C(t + k - 1, k) (combinatorial number system, Knuth TAOCP 7.2.1.3).
    """
    m = rows.shape[1]
    binom = _binomials(d + m - 1, m - 1)
    tail = np.zeros(len(rows), dtype=np.intp)
    pos = np.zeros(len(rows), dtype=np.intp)
    for k in range(1, m):
        tail += rows[:, m - k]
        pos += binom[tail + k - 1, k]
    return pos


@lru_cache(maxsize=None)
def _log_factorials(n: int) -> np.ndarray:
    """lgamma(i + 1) for 0 <= i <= n."""
    return np.array([math.lgamma(i + 1) for i in range(n + 1)])


def enumerate_basis(m: int, d: int) -> list[tuple[int, ...]]:
    """Multi-indices of degree d over m variables, graded-lex order."""
    if m < 1 or d < 0:
        raise ValueError("need m >= 1 and d >= 0")
    return list(_basis(m, d))


@lru_cache(maxsize=None)
def _basis_pos(m: int, d: int) -> dict[tuple[int, ...], int]:
    return {D: i for i, D in enumerate(_basis(m, d))}


def normalization(D: tuple[int, ...]) -> float:
    """sqrt(d_1! ... d_m!), the monomial-to-orthonormal conversion factor."""
    lg = sum(math.lgamma(d + 1) for d in D)
    if lg > 1400.0:  # sqrt would still overflow float range
        raise OverflowError(f"normalization overflows for multi-index {D}")
    if sum(D) <= _EXACT_DEGREE:
        return math.sqrt(math.prod(math.factorial(d) for d in D))
    return math.exp(0.5 * lg)


def _sqrt_multibinom(D: tuple[int, ...], E: tuple[int, ...]) -> float:
    # sqrt((D+E)! / (D! E!)) as a product of per-coordinate binomials
    if sum(D) + sum(E) <= _EXACT_DEGREE:
        return math.sqrt(math.prod(math.comb(d + e, d) for d, e in zip(D, E)))
    lg = sum(
        math.lgamma(d + e + 1) - math.lgamma(d + 1) - math.lgamma(e + 1)
        for d, e in zip(D, E)
    )
    return math.exp(0.5 * lg)


@dataclass(frozen=True)
class GradedElement:
    """Element of the graded algebra: per-degree coefficient vectors.

    components maps degree -> complex vector of length basis_size(dim, d);
    degrees absent from the map are zero.  max_degree is the stored horizon:
    for truncated series the coefficients above it are unknown rather than
    zero, which the `truncated` flag records.
    """

    dim: int
    components: dict[int, np.ndarray] = field(default_factory=dict)
    max_degree: int = 0
    truncated: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        clean = {}
        for d, arr in self.components.items():
            if d < 0 or d > self.max_degree:
                raise ValueError(f"component degree {d} outside [0, {self.max_degree}]")
            a = np.ascontiguousarray(arr, dtype=complex)
            if a.shape != (basis_size(self.dim, d),):
                raise DimensionMismatch(
                    f"degree {d} component has length {a.shape}, "
                    f"expected {basis_size(self.dim, d)}"
                )
            a.flags.writeable = False
            clean[d] = a
        object.__setattr__(self, "components", clean)

    def component(self, d: int) -> np.ndarray:
        got = self.components.get(d)
        if got is not None:
            return got
        return np.zeros(basis_size(self.dim, d), dtype=complex)

    def degrees(self) -> list[int]:
        return sorted(self.components)

    def nonzero_degrees(self) -> list[int]:
        # the component arrays are read-only, so one scan serves every call
        got = self.__dict__.get("_nonzero")
        if got is None:
            got = tuple(d for d in self.degrees() if self.components[d].any())
            object.__setattr__(self, "_nonzero", got)
        return list(got)


def vacuum(m: int) -> GradedElement:
    """The unit of the algebra: 1 in degree zero."""
    return GradedElement(m, {0: np.ones(1, dtype=complex)}, max_degree=0)


def from_vector(x) -> GradedElement:
    """Degree-one element with coordinates x against v_1 ... v_m."""
    a = np.asarray(x, dtype=complex).ravel()
    return GradedElement(len(a), {1: a}, max_degree=1)


def scale(phi: GradedElement, s: complex) -> GradedElement:
    comps = {d: s * arr for d, arr in phi.components.items()}
    return GradedElement(phi.dim, comps, phi.max_degree, phi.truncated)


def add(a: GradedElement, b: GradedElement) -> GradedElement:
    """Sum; the horizon shrinks to the truncated side's, polynomials are exact."""
    if a.dim != b.dim:
        raise DimensionMismatch("dims differ")
    truncated = a.truncated or b.truncated
    horizons = [x.max_degree for x in (a, b) if x.truncated]
    horizon = min(horizons) if horizons else max(a.max_degree, b.max_degree)
    comps: dict[int, np.ndarray] = {}
    for d in set(a.components) | set(b.components):
        if d > horizon:
            continue
        comps[d] = a.component(d) + b.component(d)
    return GradedElement(a.dim, comps, horizon, truncated)


def inner_product(a: GradedElement, b: GradedElement) -> complex:
    """Sum over degrees of the coordinate inner products.

    Conjugate-linear in the first argument.  Exact for polynomial inputs;
    for truncated inputs only the stored degrees contribute.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("dims differ")
    upper = min(a.max_degree, b.max_degree)
    total = 0j
    for d in sorted(set(a.components) & set(b.components)):
        if d <= upper:
            total += np.vdot(a.components[d], b.components[d])
    return complex(total)


def permanent_inner_oracle(xs, ys) -> complex:
    """Inner product of x_1...x_d and y_1...y_d via the permanent formula.

    <x_1...x_d | y_1...y_d> = sum over permutations p of prod_j <x_j | y_p(j)>.
    Brute force over all d! permutations; guarded at d <= 8.
    """
    xs = [np.asarray(x, dtype=complex).ravel() for x in xs]
    ys = [np.asarray(y, dtype=complex).ravel() for y in ys]
    if len(xs) != len(ys):
        raise DimensionMismatch("factor counts differ")
    d = len(xs)
    if d == 0:
        return 1.0 + 0j
    if d > PERMANENT_GUARD:
        raise GuardExceeded(f"permanent oracle guarded at degree {PERMANENT_GUARD}")
    m = len(xs[0])
    if any(len(v) != m for v in xs + ys):
        raise DimensionMismatch("vector dims differ")
    gram = np.array([[np.vdot(x, y) for y in ys] for x in xs])
    total = 0j
    for p in itertools.permutations(range(d)):
        prod = 1.0 + 0j
        for i in range(d):
            prod *= gram[i, p[i]]
        total += prod
    return complex(total)


def embed_product(vectors, dim: int | None = None) -> GradedElement:
    """Coordinates of the product x_1 ... x_d in the orthonormal basis.

    Expands the product over all index assignments (m^d of them), so it is
    independent of the graded-convolution product and usable as its check.
    An empty list is the empty product, the vacuum; it needs an explicit dim.
    """
    vs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    d = len(vs)
    if d == 0:
        if dim is None:
            raise ValueError("empty product needs an explicit dim")
        return vacuum(dim)
    m = len(vs[0])
    if dim is not None and dim != m:
        raise DimensionMismatch(f"vectors have dim {m}, expected {dim}")
    if any(len(v) != m for v in vs):
        raise DimensionMismatch("vector dims differ")
    if m**d > _EMBED_BUDGET:
        raise GuardExceeded(f"embed_product expansion {m}^{d} exceeds budget")
    acc: dict[tuple[int, ...], complex] = {}
    for assign in itertools.product(range(m), repeat=d):
        coef = 1.0 + 0j
        for j, i in enumerate(assign):
            coef *= vs[j][i]
        if coef == 0:
            continue
        D = [0] * m
        for i in assign:
            D[i] += 1
        key = tuple(D)
        acc[key] = acc.get(key, 0j) + coef
    out = np.zeros(basis_size(m, d), dtype=complex)
    pos = _basis_pos(m, d)
    for D, coef in acc.items():
        out[pos[D]] = coef * normalization(D)
    return GradedElement(m, {d: out}, max_degree=d)


@lru_cache(maxsize=None)
def _scatter_map(m: int, d_src: int, entry: tuple[int, ...]):
    """Target positions and weights for multiplying degree d_src by v^entry.

    D -> D + entry is injective, so the returned index array has no repeats
    and a scatter through it adds to each target position once.  The
    weights are bit for bit those of _sqrt_multibinom(D, entry): the same
    exact binomials below _EXACT_DEGREE, the same log-gamma sums in the same
    coordinate order and math.exp above it, taken once per distinct exponent
    (numpy's exp differs in the last bit on some entries).
    """
    d_tgt = d_src + sum(entry)
    src = _basis_array(m, d_src)
    ent = np.array(entry, dtype=np.intp)
    tgt = src + ent
    idx = _rank(tgt, d_tgt)
    if d_tgt <= _EXACT_DEGREE:
        prod = _binomials(_EXACT_DEGREE, _EXACT_DEGREE)[tgt, ent].prod(axis=1)
        return idx, np.sqrt(prod.astype(float))
    lgam = _log_factorials(d_tgt)
    lg = np.zeros(len(src))
    for i, e in enumerate(entry):
        lg += lgam[tgt[:, i]] - lgam[src[:, i]] - lgam[e]
    exponents, where = np.unique(0.5 * lg, return_inverse=True)
    return idx, np.array([math.exp(x) for x in exponents.tolist()])[where]


def symmetric_product(a: GradedElement, b: GradedElement, cap: int = 64) -> GradedElement:
    """Graded product by convolution of coefficient vectors.

    The coordinate on D + E receives coef_D * coef_E * sqrt((D+E)!/(D! E!)).
    Output degrees above cap are dropped and flagged, not an error.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("dims differ")
    m = a.dim
    comps: dict[int, np.ndarray] = {}
    dropped = False
    degs_b = b.nonzero_degrees()
    for da in a.nonzero_degrees():
        arr_a = a.components[da]
        nnz_a = np.count_nonzero(arr_a)
        for db in degs_b:
            if da + db > cap:
                dropped = True
                continue
            arr_b = b.components[db]
            tgt = comps.get(da + db)
            if tgt is None:
                tgt = comps[da + db] = np.zeros(basis_size(m, da + db), dtype=complex)
            # scatter from the side with fewer nonzero entries
            if nnz_a <= np.count_nonzero(arr_b):
                entries, spread, d_spread = arr_a, arr_b, db
            else:
                entries, spread, d_spread = arr_b, arr_a, da
            ent_basis = _basis(m, da + db - d_spread)
            for k in entries.nonzero()[0].tolist():
                idx, w = _scatter_map(m, d_spread, ent_basis[k])
                np.add.at(tgt, idx, entries[k] * w * spread)
    truncated = a.truncated or b.truncated or dropped
    # every stored degree is at most cap and at most a.max_degree + b.max_degree
    return GradedElement(m, comps, min(cap, a.max_degree + b.max_degree), truncated)


def coproduct_oracle(D: tuple[int, ...]):
    """Splittings of the monomial v^D under the diagonal, with weights.

    Computed from the definition: each variable v_i maps to a_i + b_i in the
    doubled algebra and the powers are expanded by repeated multiplication.
    Returns a list of (B, D - B, integer weight); the weights come out equal
    to prod_i binom(d_i, b_i).  Guarded at total degree 8.
    """
    D = tuple(int(x) for x in D)
    m = len(D)
    if sum(D) > COPRODUCT_GUARD:
        raise GuardExceeded(f"coproduct oracle guarded at degree {COPRODUCT_GUARD}")
    # polynomial in the 2m doubled variables, keyed by the first-leg exponents
    poly: dict[tuple[int, ...], int] = {tuple([0] * m): 1}
    for i, di in enumerate(D):
        for _ in range(di):
            nxt: dict[tuple[int, ...], int] = {}
            for B, c in poly.items():
                up = list(B)
                up[i] += 1
                key = tuple(up)
                nxt[key] = nxt.get(key, 0) + c  # factor a_i
                nxt[B] = nxt.get(B, 0) + c      # factor b_i
            poly = nxt
    out = []
    for B in sorted(poly):  # ascending in the first leg
        rest = tuple(d - b for d, b in zip(D, B))
        out.append((B, rest, poly[B]))
    return out


def antidual_product(a: GradedElement, b: GradedElement, cap: int = 64) -> GradedElement:
    """Product of antidual series through the coproduct pairing.

    For each target multi-index D the coefficient is gathered over all
    splittings B + (D-B) = D with the binomial weight of the coproduct and
    the monomial normalization conversions written out.  Must agree with
    symmetric_product; the two enumerate along different routes.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("dims differ")
    m = a.dim
    degs_a = set(a.nonzero_degrees())
    degs_b = set(b.nonzero_degrees())
    horizon = min(cap, a.max_degree + b.max_degree)
    comps: dict[int, np.ndarray] = {}
    for d in range(horizon + 1):
        if not any(da in degs_a and (d - da) in degs_b for da in range(d + 1)):
            continue
        out = np.zeros(basis_size(m, d), dtype=complex)
        for i, D in enumerate(_basis(m, d)):
            total = 0j
            for B in itertools.product(*(range(di + 1) for di in D)):
                da = sum(B)
                if da not in degs_a or (d - da) not in degs_b:
                    continue
                rest = tuple(di - bi for di, bi in zip(D, B))
                ca = a.components[da][_basis_pos(m, da)[B]]
                cb = b.components[d - da][_basis_pos(m, d - da)[rest]]
                if ca == 0 or cb == 0:
                    continue
                # binom(D,B) * sqrt(B! (D-B)!) / sqrt(D!) = sqrt(binom(D,B))
                total += _sqrt_multibinom(B, rest) * ca * cb
            out[i] = total
        comps[d] = out
    dropped = a.max_degree + b.max_degree > cap
    truncated = a.truncated or b.truncated or dropped
    return GradedElement(m, comps, horizon, truncated)


def evaluate(psi: GradedElement, phi: GradedElement) -> complex:
    """Apply the antidual series psi to the polynomial phi: sum <phi_d | psi_d>.

    phi must be an honest polynomial whose support fits inside psi's stored
    horizon whenever psi is a truncation.
    """
    if psi.dim != phi.dim:
        raise DimensionMismatch("dims differ")
    if phi.truncated:
        raise ValueError("evaluate needs a polynomial argument, got a truncated series")
    over = [d for d in phi.nonzero_degrees() if d > psi.max_degree]
    if over and psi.truncated:
        raise InsufficientHorizon(
            f"argument has degree {max(over)} beyond the stored horizon {psi.max_degree}"
        )
    total = 0j
    for d in phi.nonzero_degrees():
        total += np.vdot(phi.components[d], psi.component(d))
    return complex(total)


def symmetric_power_matrix(W: np.ndarray, d: int) -> np.ndarray:
    """Matrix of the degree-d functorial lift of W in the orthonormal basis.

    Column for basis index E is the coordinate vector of
    prod_i (W v_i)^{e_i} / sqrt(E!).  It is built degree by degree: with i
    the first nonzero coordinate of E, column(E) = (W v_i) column(E - e_i)
    / sqrt(e_i), and multiplying by W v_i = sum_j W_ji v_j sends the basis
    vector of D to sum_j W_ji sqrt(d_j + 1) times that of D + e_j.
    """
    W = np.asarray(W, dtype=complex)
    m = W.shape[0]
    if W.shape != (m, m):
        raise DimensionMismatch("square matrix required")
    if d < 0:
        raise ValueError("need d >= 0")
    unit = np.eye(m, dtype=np.intp)
    out = np.ones((1, 1), dtype=complex)
    for k in range(1, d + 1):
        src, cols = _basis_array(m, k - 1), _basis_array(m, k)
        first = (cols != 0).argmax(axis=1)
        prev = out[:, _rank(cols - unit[first], k - 1)]
        # coefficient of v_j in W v_i / sqrt(e_i), one column per E
        coef = W[:, first] / np.sqrt(cols[np.arange(len(cols)), first])
        out = np.zeros((len(cols), len(cols)), dtype=complex)
        for j in range(m):
            out[_rank(src + unit[j], k)] += np.sqrt(src[:, j] + 1.0)[:, None] * prev * coef[j]
    return out
