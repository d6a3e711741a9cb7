"""Graded symmetric algebra over C^m in orthonormal coordinates.

Degree-d elements are stored as coefficient vectors against the orthonormal
monomial basis indexed by multi-indices in graded-lexicographic order.  With
v^D = v_1^{d_1} ... v_m^{d_m} / sqrt(d_1! ... d_m!) the basis is orthonormal
for the inner product that is conjugate-linear in the first argument, and the
coordinate inner product is a plain conjugated dot product per degree.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, GuardExceeded, InsufficientHorizon

# Size guards for the brute-force oracles.
PERMANENT_GUARD = 8
COPRODUCT_GUARD = 8
_EMBED_BUDGET = 2_000_000


def basis_size(m: int, d: int) -> int:
    """Dimension of the degree-d slice, binom(d + m - 1, m - 1)."""
    return math.comb(d + m - 1, m - 1)


def _basis_rows(m: int, d: int) -> np.ndarray:
    """Multi-indices of degree d over m variables, one per row, graded-lex order.

    The order is descending lexicographic: the first coordinate runs from d
    down to 0, and behind each value d - k come the degree-k rows over the
    remaining m - 1 variables in their own order.  The array is new and kept
    by no cache.  It is filled one coordinate at a time: each prefix of
    coordinates 0 to c - 1, whose rest adds up to t, splits into t + 1
    prefixes, one per value t, ..., 0 of coordinate c, and each fills as many
    rows as the m - c - 1 coordinates after c have monomials of the degree
    left over.
    """
    out = np.empty((basis_size(m, d), m), dtype=np.intp)
    rest = np.array([d])  # per prefix, what the coordinates from c on add up to
    for c in range(m - 1):
        k = m - c - 1
        counts = rest + 1
        # the prefixes of coordinates 0 to c: C(d + c + 1, c + 1) of them;
        # in place, as the last level is as long as the basis
        after = np.arange(math.comb(d + c + 1, c + 1))
        after -= (counts.cumsum() - counts).repeat(counts)
        col = rest.repeat(counts)
        col -= after
        if k > 1:  # each prefix's block of rows: basis_size(k, after)
            col = col.repeat(_binomials(d + k - 1, k - 1)[k - 1 :, k - 1].take(after))
        out[:, c] = col
        rest = after
    out[:, m - 1] = rest
    return out


# Read-only tables by key: the filled head of a larger array, whose spare room
# takes the rows a larger n asks for
_grown_tables: dict = {}


def _grown(key, n: int, fill) -> np.ndarray:
    """Rows 0 to n of the table under key; fill(start, stop) makes rows start to stop - 1."""
    head = _grown_tables.get(key)
    have = 0 if head is None else len(head)
    if have <= n:
        rows = fill(have, n + 1)
        room = rows[:0] if head is None else head.base
        if len(room) <= n:  # at least double, so the table is rarely copied
            room, old = np.empty((max(n + 1, 2 * len(room)),) + rows.shape[1:], rows.dtype), room
            room[:have] = old[:have]
        room[have : n + 1] = rows
        head = _grown_tables[key] = room[: n + 1]
        head.flags.writeable = False
    return head[: n + 1]


def _binomials(n: int, k: int) -> np.ndarray:
    """C(i, j) for 0 <= i <= n and 0 <= j <= k, exact in an integer array."""
    return _grown(("binomials", k), n, lambda start, stop: np.array(
        [[math.comb(i, j) for j in range(k + 1)] for i in range(start, stop)], dtype=np.intp))


def enumerate_basis(m: int, d: int) -> list[tuple[int, ...]]:
    """Multi-indices of degree d over m variables, graded-lex order."""
    if m < 1 or d < 0:
        raise ValueError("need m >= 1 and d >= 0")
    return [tuple(D) for D in _basis_rows(m, d).tolist()]


def _positions(m: int, d: int) -> dict[tuple[int, ...], int]:
    """Position of each degree-d multi-index in enumerate_basis(m, d), for the oracles."""
    return {D: i for i, D in enumerate(enumerate_basis(m, d))}


def _root(n: int) -> float:
    """The square root of the integer n >= 0, within an ulp.

    math.sqrt rounds n to a float first, which overflows from 2^1024 up;
    past 1000 bits the integer root, rounded once, stands in for it.
    """
    return math.sqrt(n) if n.bit_length() <= 1000 else float(math.isqrt(n))


def normalization(D: tuple[int, ...]) -> float:
    """sqrt(d_1! ... d_m!), the monomial-to-orthonormal conversion factor."""
    square = 1
    for d in D:
        # past 2047 bits the root would leave the float range; 2048! is far
        # past it, so no larger factorial is ever formed
        square *= math.factorial(min(d, 2048))
        if square.bit_length() > 2047:
            raise OverflowError(f"normalization overflows for multi-index {D}")
    return _root(square)


def _sqrt_multibinom(D: tuple[int, ...], E: tuple[int, ...]) -> float:
    # sqrt((D+E)! / (D! E!)), the root of the product of per-coordinate binomials
    return _root(math.prod(math.comb(d + e, d) for d, e in zip(D, E)))


class _Layout:
    """Stored degrees of an element, ascending, and where each sits in its buffer.

    Degree degrees[i] owns buffer[offsets[i]:offsets[i + 1]].  Layouts are
    shared: every element with the same dim and stored degrees holds the one
    that _layout returns.
    """

    __slots__ = ("degrees", "offsets", "_slices")

    def __init__(self, degrees: tuple[int, ...], offsets: tuple[int, ...]):
        self.degrees = degrees
        self.offsets = offsets
        self._slices = None

    @property
    def slices(self) -> dict[int, slice]:
        """Degree -> its slice of the buffer, made on first use.

        Lazily, so the layouts of 1-D sequences, read only as a whole, stay small.
        """
        if self._slices is None:
            self._slices = {d: slice(start, end) for d, start, end in zip(self.degrees, self.offsets, self.offsets[1:])}
        return self._slices

    def count(self, upper: int) -> int:
        """How many stored degrees are at most upper."""
        return bisect.bisect_right(self.degrees, upper)

    def index(self, degrees) -> np.ndarray:
        """Buffer positions of the coefficients of the given stored degrees, in order."""
        off = np.asarray(self.offsets)
        at = np.searchsorted(np.asarray(self.degrees), np.asarray(degrees, dtype=np.intp))
        starts, sizes = off[at], off[at + 1] - off[at]
        return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


# bounded, as the public constructor takes any set of degrees
@lru_cache(maxsize=1024)
def _layout(m: int, degrees: tuple[int, ...]) -> _Layout:
    return _Layout(degrees, tuple(itertools.accumulate((basis_size(m, d) for d in degrees), initial=0)))


class GradedElement:
    """Element of the graded algebra: per-degree coefficient vectors in one buffer.

    The coefficients of the stored degrees sit in one contiguous, read-only
    complex buffer, degree after degree in ascending order; a shared layout
    gives each degree's offset.  `components` maps degree -> complex vector of
    length basis_size(dim, d), each a read-only view into the buffer made on
    access; degrees absent from the map are zero.  max_degree is the stored
    horizon: for truncated series the coefficients above it are unknown
    rather than zero, which the `truncated` flag records.

    The element owns its buffer: the constructor copies the components into a
    new one.  So a caller's array is never frozen in place, and no memory the
    caller can still write is shared.

    Two elements are equal when dim, max_degree, truncated, the stored
    degrees and every stored component agree; elements are immutable and not
    hashable.  They support weak references, through which the pairings
    remember the last pair they evaluated without keeping it alive.
    """

    __slots__ = ("_dim", "_max_degree", "_truncated", "_layout", "_buf", "_nnz", "__weakref__")

    def __init__(self, dim: int, components=None, max_degree: int = 0, truncated: bool = False):
        if dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
        arrays = {}
        for d, arr in (components or {}).items():
            if d < 0 or d > max_degree:
                raise ValueError(f"component degree {d} outside [0, {max_degree}]")
            a = np.asarray(arr, dtype=complex)
            if a.ndim == 0:
                a = a.reshape(1)
            if a.shape != (basis_size(dim, d),):
                raise DimensionMismatch(
                    f"degree {d} component has length {a.shape}, "
                    f"expected {basis_size(dim, d)}"
                )
            arrays[int(d)] = a
        layout = _layout(dim, tuple(sorted(arrays)))
        buf = np.empty(layout.offsets[-1], dtype=complex)
        for d, start, end in zip(layout.degrees, layout.offsets, layout.offsets[1:]):
            buf[start:end] = arrays[d]
        self._init(dim, layout, buf, max_degree, truncated)

    def _init(self, dim, layout, buf, max_degree, truncated, nnz=None):
        buf.setflags(write=False)  # half the cost of setting flags.writeable
        self._dim = dim
        self._max_degree = max_degree
        self._truncated = truncated
        self._layout = layout
        self._buf = buf
        # nonzero entries per nonzero degree, filled on first use by _nonzero_counts
        self._nnz = nnz

    @classmethod
    def _fresh(cls, dim: int, layout: _Layout, buf: np.ndarray, max_degree: int,
               truncated: bool, nnz: dict[int, int] | None = None) -> "GradedElement":
        """Element over a complex buffer the algebra has just allocated for layout.

        Skips the checks of __init__ and copies nothing; it only freezes the
        buffer, which no one else holds.  nnz, if given, is what
        _nonzero_counts would return for buf, counted by the caller.
        """
        el = object.__new__(cls)
        el._init(dim, layout, buf, max_degree, truncated, nnz)
        return el

    # read-only, like the buffer
    dim = property(lambda self: self._dim)
    max_degree = property(lambda self: self._max_degree)
    truncated = property(lambda self: self._truncated)

    def __repr__(self):
        return (f"GradedElement(dim={self.dim!r}, components={self.components!r}, "
                f"max_degree={self.max_degree!r}, truncated={self.truncated!r})")

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (
            (self.dim, self.max_degree, self.truncated) == (other.dim, other.max_degree, other.truncated)
            and self._layout.degrees == other._layout.degrees
            and np.array_equal(self._buf, other._buf)
        )

    __hash__ = None

    @property
    def components(self) -> dict[int, np.ndarray]:
        buf = self._buf
        return {d: buf[at] for d, at in self._layout.slices.items()}

    def component(self, d: int) -> np.ndarray:
        at = self._layout.slices.get(d)
        if at is None:
            return np.zeros(basis_size(self.dim, d), dtype=complex)
        return self._buf[at]

    def degrees(self) -> list[int]:
        return list(self._layout.degrees)

    def _nonzero_counts(self) -> dict[int, int]:
        """Nonzero entries per nonzero degree, ascending, from one pass over the buffer.

        The element owns its buffer and it is read-only, so the counts are
        taken once, on the first call, and serve every later one.
        """
        got = self._nnz
        if got is None:
            lay, buf = self._layout, self._buf
            if len(lay.degrees) > 1:
                counts = np.add.reduceat(buf != 0, lay.offsets[:-1], dtype=np.intp).tolist()
            else:  # one degree or none
                counts = [np.count_nonzero(buf)]
            got = {d: n for d, n in zip(lay.degrees, counts) if n}
            self._nnz = got
        return got

    def nonzero_degrees(self) -> list[int]:
        return list(self._nonzero_counts())


def _common_degrees(a: GradedElement, b: GradedElement, upper: int) -> tuple[int, ...]:
    """The degrees both elements store, ascending, up to upper."""
    da, db = a._layout.degrees, b._layout.degrees
    degs = da if da == db else tuple(sorted(set(da).intersection(db)))
    return degs[: bisect.bisect_right(degs, upper)]


def _gather(el: GradedElement, degrees: tuple[int, ...]) -> np.ndarray:
    """The coefficients of the given stored degrees, in order: a view when they lead the buffer."""
    lay = el._layout
    if lay.degrees[: len(degrees)] == degrees:
        return el._buf[: lay.offsets[len(degrees)]]
    return el._buf[lay.index(degrees)]


def vacuum(m: int) -> GradedElement:
    """The unit of the algebra: 1 in degree zero."""
    return GradedElement(m, {0: np.ones(1, dtype=complex)}, max_degree=0)


def from_vector(x) -> GradedElement:
    """Degree-one element with coordinates x against v_1 ... v_m."""
    a = np.asarray(x, dtype=complex).ravel()
    return GradedElement(len(a), {1: a}, max_degree=1)


def scale(phi: GradedElement, s: complex) -> GradedElement:
    return GradedElement._fresh(phi.dim, phi._layout, s * phi._buf, phi.max_degree, phi.truncated)


def _horizon(a: GradedElement, b: GradedElement, cap: int | None = None) -> int:
    """Highest degree known to the sum of a and b (cap None) or to their product capped at cap.

    A truncated operand caps it at its own horizon (for a product this
    leaves out the other factor's lowest nonzero degree, conservatively).
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    known = max(a._max_degree, b._max_degree) if cap is None else min(cap, a._max_degree + b._max_degree)
    for x in (a, b):
        if x._truncated:
            known = min(known, x._max_degree)
    return known


def add(a: GradedElement, b: GradedElement) -> GradedElement:
    """Sum; the horizon shrinks to the truncated side's, polynomials are exact."""
    if a.dim != b.dim:
        raise DimensionMismatch("dims differ")
    horizon = _horizon(a, b)
    la, lb = a._layout, b._layout
    ka, kb = la.count(horizon), lb.count(horizon)
    layout = _layout(a.dim, tuple(sorted(set(la.degrees[:ka]).union(lb.degrees[:kb]))))
    buf = np.zeros(layout.offsets[-1], dtype=complex)
    buf[layout.index(la.degrees[:ka])] = a._buf[: la.offsets[ka]]
    buf[layout.index(lb.degrees[:kb])] += b._buf[: lb.offsets[kb]]
    return GradedElement._fresh(a.dim, layout, buf, horizon, a.truncated or b.truncated)


def inner_product(a: GradedElement, b: GradedElement) -> complex:
    """Coordinate inner product over the degrees both elements store.

    Conjugate-linear in the first argument.  Exact for polynomial inputs;
    for truncated inputs only the stored degrees contribute.
    """
    if a.dim != b.dim:
        raise DimensionMismatch("dims differ")
    degs = _common_degrees(a, b, min(a.max_degree, b.max_degree))
    return complex(np.vdot(_gather(a, degs), _gather(b, degs)))


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
    pos = _positions(m, d)
    for D, coef in acc.items():
        out[pos[D]] = coef * normalization(D)
    return GradedElement(m, {d: out}, max_degree=d)


def _binomial_roots(e: int, n: int) -> np.ndarray:
    """_root(C(i + e, e)) for 0 <= i <= n, of the exact binomials."""
    return _grown(("binomial_roots", e), n, lambda start, stop: np.array(
        [_root(math.comb(i + e, e)) for i in range(start, stop)]))


def _scatter_map(m: int, d_src: int, entries, src: np.ndarray):
    """Target positions and weights of the rows src, the degree-d_src basis, times each v^E in entries.

    entries is a (K, m) integer array, one multi-index per row.  Returns two
    (K, len(src)) arrays, row k the table of entries[k].  D -> D + E is
    injective, so a scatter through a row's positions adds to each target
    once.  Row D's graded-lex position counts the rows before it: at each
    coordinate c > 0, with k = m - c and t the sum of D's coordinates from c
    on, the C(t + k - 1, k) rows that agree with D before c and are larger
    there (hockey-stick identity; combinatorial number system, Knuth TAOCP
    7.2.1.3).  So row r goes to r plus a gain, and no moved row is built:
    with s the sum of E's coordinates from c on, the gain at c is
    C(t + s + k - 1, k) - C(t + k - 1, k), zero past E's last nonzero
    coordinate: one read per row from a table of that difference for
    t = 0, ..., d_src.  Row D weighs sqrt((D + E)! / (D! E!)),
    the product in coordinate order of sqrt(C(d_i + e_i, e_i)) over the i
    with e_i > 0, each read from its exponent's shared table
    (_binomial_roots).

    The entries share what hangs on the source rows alone: coordinate by
    coordinate, one tail t, one gain per s and one root column per exponent,
    each dropped once the next coordinate starts.
    """
    n, entries = len(src), entries.tolist()
    idx = np.empty((len(entries), n), dtype=np.intp)
    idx[...] = np.arange(n)
    rests = [sum(E) - E[0] for E in entries]  # what each entry raises from coordinate 1 on
    if any(rests):  # the first coordinate adds to no position
        binom = _binomials(d_src + max(map(sum, entries)) + m - 1, m - 1)  # the positions' table for the target degree
        tail = d_src - src[:, 0]
        for c in range(1, m):
            k, gains = m - c, {}
            for r, s in enumerate(rests):
                if not s:  # past the entry's last nonzero coordinate
                    continue
                gain = gains.get(s)
                if gain is None:
                    gain = gains[s] = (binom[s + k - 1 : s + k + d_src, k] - binom[k - 1 : k + d_src, k]).take(tail)
                row = idx[r]  # a view: row += writes in place, idx[r] += would copy it back
                row += gain
                rests[r] = s - entries[r][c]
            if not any(rests):
                break
            tail -= src[:, c]
        del tail, gains  # the weights need neither, and the source rows can be long
    w = np.empty((len(entries), n))
    for c in range(m):
        roots = {}
        for r, E in enumerate(entries):
            e = E[c]
            if not e:
                if c == m - 1 and not any(E):  # the degree-0 entry: no factor
                    w[r] = 1.0
                continue
            root = roots.get(e)
            if root is None:
                root = roots[e] = _binomial_roots(e, d_src).take(src[:, c])
            row = w[r]
            if any(E[:c]):
                row *= root
            else:  # the first factor
                row[...] = root
    return idx, w


# A degree pair whose stacked product would hold more coefficients than this
# scatters entry by entry, so its temporaries stay small beside the plan
_STACK_BUDGET = 16384


def _stacked(rows: int, n: int) -> bool:
    """Whether a degree pair with rows nonzero entries and n source coefficients scatters as one stack.

    A single entry never does: a one-element stack rounds differently from
    the scalar form.
    """
    return 1 < rows and rows * n <= _STACK_BUDGET


@lru_cache(maxsize=None)
def _scatter_plan(m: int, d_src: int, d_ent: int, nonzero: bytes | None):
    """Scatter tables for multiplying degree d_src by the degree-d_ent entries.

    nonzero is the boolean mask of the entries that take part, as bytes, or
    None for all of them.  Row r of the returned (idx, w) is _scatter_map's
    table for the r-th of those entries: one call builds them all, straight
    into two read-only 2-D arrays, from a source basis built for it alone
    and kept by no cache.  A pair that scatters as one stack gets the arrays;
    any other gets tuples of their rows, which the product reads one by one.
    """
    entries = _basis_rows(m, d_ent)
    if nonzero is not None:
        entries = entries[np.frombuffer(nonzero, dtype=bool)]
    idx, w = _scatter_map(m, d_src, entries, _basis_rows(m, d_src))
    idx.flags.writeable = w.flags.writeable = False
    if not _stacked(len(entries), basis_size(m, d_src)):
        idx, w = tuple(idx), tuple(w)
    return idx, w


# bounded like _layout; a Gaussian series asks for one key per power
@lru_cache(maxsize=1024)
def _product_layout(m: int, degrees_a: tuple[int, ...], degrees_b: tuple[int, ...], horizon: int) -> _Layout:
    """Layout of a product of factors with these nonzero degrees: every sum of two up to horizon."""
    return _layout(m, tuple(sorted({da + db for da in degrees_a for db in degrees_b if da + db <= horizon})))


def symmetric_product(a: GradedElement, b: GradedElement, cap: int = 64, *,
                      out: np.ndarray | None = None) -> GradedElement:
    """Graded product by convolution of coefficient vectors.

    The coordinate on D + E receives coef_D * coef_E * sqrt((D+E)!/(D! E!)).
    Output degrees above the horizon (see _horizon) are dropped, and the
    product is flagged truncated, not an error.  out, if given, is a complex
    array of exactly the product's coefficient count: it is overwritten and
    becomes the product's buffer, so the caller must not write it afterwards.

    Each degree pair is one scatter through its plan: the nonzero entries of
    one side times the weights times the other side, added in entry order.
    A single entry, or a pair past _STACK_BUDGET, scatters entry by entry
    with a scalar coefficient, which gives the same bits.
    """
    if a._dim != b._dim:
        raise DimensionMismatch("dims differ")
    m = a._dim
    horizon = _horizon(a, b, cap)
    counts_a, counts_b = a._nonzero_counts(), b._nonzero_counts()
    layout = _product_layout(m, tuple(counts_a), tuple(counts_b), horizon)
    if out is None:
        out = np.zeros(layout.offsets[-1], dtype=complex)
    elif out.dtype != complex or out.shape != (layout.offsets[-1],):
        raise ValueError(f"out must be a complex array of shape ({layout.offsets[-1]},)")
    else:
        out[...] = 0
    at_a, at_b, at_out = a._layout.slices, b._layout.slices, layout.slices
    dropped = False
    for da, nnz_a in counts_a.items():
        arr_a = a._buf[at_a[da]]
        for db, nnz_b in counts_b.items():
            if da + db > horizon:
                dropped = True
                continue
            arr_b, tgt = b._buf[at_b[db]], out[at_out[da + db]]
            # scatter from the side with fewer nonzero entries
            if nnz_a <= nnz_b:
                entries, nnz, spread, d_spread = arr_a, nnz_a, arr_b, db
            else:
                entries, nnz, spread, d_spread = arr_b, nnz_b, arr_a, da
            nonzero = None
            if nnz < len(entries):
                mask = entries != 0
                nonzero, entries = mask.tobytes(), entries[mask]
            idx, w = _scatter_plan(m, d_spread, da + db - d_spread, nonzero)
            if _stacked(nnz, len(spread)):
                v = entries[:, None] * w
                v *= spread
                np.add.at(tgt, idx.ravel(), v.ravel())
            else:
                for k in range(nnz):
                    np.add.at(tgt, idx[k], entries[k] * w[k] * spread)
    return GradedElement._fresh(m, layout, out, horizon, a._truncated or b._truncated or dropped)


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
    degs_a, degs_b = a._nonzero_counts(), b._nonzero_counts()
    comps_a, comps_b = a.components, b.components
    horizon = _horizon(a, b, cap)
    pos = {d: _positions(m, d) for d in set(degs_a).union(degs_b) if d <= horizon}
    comps: dict[int, np.ndarray] = {}
    for d in range(horizon + 1):
        if not any(da in degs_a and (d - da) in degs_b for da in range(d + 1)):
            continue
        out = np.zeros(basis_size(m, d), dtype=complex)
        for i, D in enumerate(enumerate_basis(m, d)):
            total = 0j
            for B in itertools.product(*(range(di + 1) for di in D)):
                da = sum(B)
                if da not in degs_a or (d - da) not in degs_b:
                    continue
                rest = tuple(di - bi for di, bi in zip(D, B))
                ca = comps_a[da][pos[da][B]]
                cb = comps_b[d - da][pos[d - da][rest]]
                if ca == 0 or cb == 0:
                    continue
                # binom(D,B) * sqrt(B! (D-B)!) / sqrt(D!) = sqrt(binom(D,B))
                total += _sqrt_multibinom(B, rest) * ca * cb
            out[i] = total
        comps[d] = out
    dropped = any(da + db > horizon for da in degs_a for db in degs_b)
    return GradedElement(m, comps, horizon, a.truncated or b.truncated or dropped)


def require_covered(poly: GradedElement, series: GradedElement) -> None:
    """Raise InsufficientHorizon if polynomial poly reaches past truncated series' horizon."""
    if series.truncated and not poly.truncated:
        top = max(poly._nonzero_counts(), default=-1)
        if top > series.max_degree:
            raise InsufficientHorizon(f"polynomial support {top} exceeds horizon {series.max_degree}")


def evaluate(psi: GradedElement, phi: GradedElement) -> complex:
    """Apply the antidual series psi to the polynomial phi: sum <phi_d | psi_d>.

    phi must be an honest polynomial whose support fits inside psi's stored
    horizon whenever psi is a truncation.
    """
    if psi.dim != phi.dim:
        raise DimensionMismatch("dims differ")
    if phi.truncated:
        raise ValueError("evaluate needs a polynomial argument, got a truncated series")
    require_covered(phi, psi)
    return inner_product(phi, psi)


def symmetric_power_matrix(W: np.ndarray, d: int) -> np.ndarray:
    """Matrix of the degree-d functorial lift of W in the orthonormal basis.

    Column for basis index E is the coordinate vector of
    prod_i (W v_i)^{e_i} / sqrt(E!).  It is built degree by degree as a
    product: with i the first nonzero coordinate of E, column(E) =
    (W v_i) column(E - e_i) / sqrt(e_i).
    """
    W = np.asarray(W, dtype=complex)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or not len(W):
        raise DimensionMismatch(f"need a nonempty square matrix, got shape {W.shape}")
    if d < 0:
        raise ValueError("need d >= 0")
    m = len(W)
    images = [from_vector(W[:, i]) for i in range(m)]
    cols = {(0,) * m: vacuum(m)}
    for k in range(1, d + 1):
        prev, cols, layout = cols, {}, _layout(m, (k,))
        for E in enumerate_basis(m, k):
            i = next(j for j, e in enumerate(E) if e)
            col = symmetric_product(images[i], prev[E[:i] + (E[i] - 1,) + E[i + 1 :]], cap=k).component(k)
            cols[E] = GradedElement._fresh(m, layout, col / math.sqrt(E[i]), k, False)
    return np.column_stack([col.component(d) for col in cols.values()])
