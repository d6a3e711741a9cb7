"""Degreewise series pairings, t-scaled regularization, and the Abel limit.

The primitive object is the term sequence a_d = <phi_d | psi_d>.  The plain
pairing sums it directly, the scaled pairing weights degree d by t^{2d}, and
the Abel pairing takes the limit of the scaled pairing as t -> 1.
Convergence is never assumed: each evaluation carries a verdict (converged /
divergent / undecided), the rule that decided it or the reason it stayed
undecided, and a tail or residual estimate; a value is only reported for
converged evaluations.

Verdict rules, in the order applied to the nonzero terms (rule names in
brackets):
  * finite inputs (no truncation in play) sum exactly [finite];
  * terms that stay above tolerance with non-decreasing magnitudes over a
    20-term window past degree 50 are declared divergent [divergence_fit];
  * a geometric tail (max ratio rho < 1 over the last 10 terms, all of them
    below tolerance * (1 - rho)) converges with tail |last| * rho / (1-rho)
    [geometric_tail];
  * fewer than 8 nonzero terms leave the rest undecided [window_too_short];
  * epsilon sees only rows whose largest |term| in the last quarter of the
    epsilon window (the last 220 nonzero terms) is below 0.9 x the largest
    in the quarter before; on terms that do not shrink it would return the
    analytic continuation, not a sum [terms_not_shrinking];
  * the epsilon algorithm is applied to the last 220 partial sums of all
    the nonzero terms, and convergence is claimed only when the tableau
    residual and a shortened-window cross-check both sit below tolerance
    [epsilon, else epsilon_residual].

The Abel pairing works from the plain terms first and tries, in order:
  1. the plain series' rules: a convergent series sums to its Abel limit
     (Abel's theorem) [plain_sum];
  2. when the plain terms do not shrink or diverge, and a fit
     log|a_d| = alpha + beta d + gamma log(d+1) over the second half of the
     nonzero terms gives beta <= 1e-3, a radius of convergence of at least
     one: the epsilon value of the plain partial sums, full and 3/4 window
     within tolerance [continuation];
  3. terms of one phase that do not decay: the same fit gives beta >= 0 and
     no magnitude in its range falls below the one before; a pole at s = 1
     [pole];
  4. only if all of these decline, the grid t_k = 1 - 2^-k: the rules above
     on each scaled row and the epsilon algorithm across the grid values;
     the first row that does not converge decides [grid when it diverges,
     else its reason; grid or epsilon_residual when every row converges].

The three pairings share one path, `_series`: a term matrix with one row per
t (one row for the plain and scaled pairings, the whole grid for the Abel
fallback), split into blocks of rows that share a nonzero pattern.  `_rules`
applies every rule above to one block as array work, with one epsilon call
for the rows the earlier rules leave open; `_report` turns an outcome into
the report.  Consecutive pairings of one pair share its term vector and its
plain outcome: a one-entry memo (`_pair_data`), keyed by the identity of phi
and psi through weak references and by the config's value, keeps the last
pair's read-only terms, its finite flag and, once something asks for it, its
plain outcome, so `pairing_1`, `pairing_t` and `abel_pairing` on one pair
call `degree_terms` once and run the plain rules once.  Elements are
immutable, so identity stands for content; the weak references keep no
series alive.  The epsilon call builds a scalar tableau when the table is small
and a batched numpy table of complex columns otherwise, with np.reciprocal in
place of CPython's division; both give the same bits (`_epsilon_table`).
Both stop building columns once every prefix they evaluate is settled: its
residual is exactly 0 (an even-column candidate equals its usable left
neighbour, as on rational generating functions and partial sums that have
stopped changing) or is the NaN of column 0.  A candidate replaces the best
only with a strictly smaller residual, and a NaN at column 0 wins outright,
so no later column can change a settled prefix and the bits are those of the
full table.  Only even columns hold candidates, so neither builds a column
past the last even one a live prefix reads.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .algebra import GradedElement, _common_degrees, _gather, _layout, require_covered
from .errors import DimensionMismatch

_DIVERGENCE_WINDOW = 20
_DIVERGENCE_DEGREE = 50
_RATIO_WINDOW = 10
_EPS_TERMS = 220
# epsilon may only see terms whose last-quarter maximum falls below this
# fraction of the maximum of the quarter before
_SHRINK = 0.9
# largest fitted log-growth per degree that still counts as radius >= 1
_MAX_BETA = 1e-3
# terms whose unit phases differ by at most this share one phase
_PHASE_TOL = 1e-9
# a log-growth per degree (or a term ratio's gap to one) this small counts as
# flat: the magnitudes do not decay
_FLAT = 1e-9
# Abel grid t_k = 1 - 2^-k for these k
_T_GRID_K = range(3, 13)
_UNITARY_TOL = 1e-10
_DEMO_POWERS = 31
# sentinel for epsilon-table entries whose difference vanishes or is not finite
_HUGE = 1e300
_SENTINEL = complex(_HUGE)
# entries at or above this modulus are never candidates
_USABLE = _HUGE / 10
# Epsilon tables with rows x (width + _SCALAR_ROW_COST) <= _SCALAR_ENTRIES
# take the scalar tableau, which pays per entry (rows x width^2 / 2) and per
# row; larger ones the numpy table, which pays seven numpy calls per column
# and a settle check every _SETTLE_EVERY even columns.  Measured on rows that
# never settle, so that both kernels build every column (2-vCPU x86-64 guest,
# Python 3.11, numpy 2.4, both kernels alternating on one core, two prefixes
# per row, best of 60 process-time samples), the two break even at these
# widths (rows: break-even width / the rule's largest width):
#   1: 66/64   2: 30/30   3: 18/18   4: 12/13   5: 9/9   6: 7/7   8: 4/4   10: 3/2
_SCALAR_ENTRIES = 68
_SCALAR_ROW_COST = 4
# The numpy table looks for settled prefixes once every this many even
# columns.  A check costs about half a column; a table that never settles
# pays 5-10% for them, one that settles stops at most 2 x this many columns
# after it.
_SETTLE_EVERY = 8


@dataclass(frozen=True)
class RegularizationConfig:
    """Knobs for series evaluation and Abel extrapolation."""

    tolerance: float = 1e-8
    max_degree: int = 200

    def __post_init__(self):
        # an infinite tolerance certifies any epsilon value, a NaN one none
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if not isinstance(self.max_degree, (int, np.integer)):
            raise ValueError(f"max_degree must be an integer, got {self.max_degree!r}")
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {self.max_degree}")

    def t_grid(self) -> list[float]:
        return [1.0 - 2.0 ** (-k) for k in _T_GRID_K]


@dataclass(frozen=True)
class PairingReport:
    """Outcome of one pairing evaluation."""

    value: complex | None
    method: str  # series_1 | scaled_t | abel
    verdict: str  # converged | divergent | undecided
    # the rule that decided the verdict, or why it stayed undecided
    rule: str
    converged: bool
    truncation_degree: int
    tail_estimate: float
    t_grid: tuple[float, ...] = ()
    extrapolation_residual: float = math.nan
    failed_t: float | None = None


@dataclass(frozen=True)
class HoelderNorms:
    p: float
    value: float
    truncation_degree: int


@dataclass(frozen=True)
class HoelderCheck:
    slack: float
    sum_abs: float
    norm_p: float
    norm_q: float


def degree_terms(phi: GradedElement, psi: GradedElement, max_degree: int | None = None):
    """Term sequence a_d = <phi_d | psi_d> up to the usable horizon.

    Returns (terms, finite): finite means the sequence is exactly the whole
    series because at least one factor is an honest polynomial covered by the
    other factor's stored horizon.
    """
    if phi.dim != psi.dim:
        raise DimensionMismatch("dims differ")
    upper = min(phi.max_degree, psi.max_degree)
    if max_degree is not None:
        upper = min(upper, max_degree)
    require_covered(phi, psi)
    require_covered(psi, phi)
    finite = (not phi.truncated) or (not psi.truncated)
    terms = np.zeros(upper + 1, dtype=complex)
    degs = _common_degrees(phi, psi, upper)
    if phi.dim == 1:
        terms[list(degs)] = _conj_products(_gather(phi, degs), _gather(psi, degs))
    else:
        at_phi, at_psi = phi._layout.slices, psi._layout.slices
        for d in degs:
            terms[d] = np.vdot(phi._buf[at_phi[d]], psi._buf[at_psi[d]])
    return terms, finite


def _conj_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conj(a) * b elementwise, bit for bit what np.vdot gives on each pair.

    np.vdot of one pair forms re = ar br + ai bi and im = ar bi - ai br and
    adds them to a zero sum, so a -0.0 comes out +0.0 and a self-pairing is
    exactly real; numpy's complex multiply rounds otherwise.  Where a product
    overflows or meets inf or NaN, BLAS combines the parts its own way, so
    those rare entries take np.vdot itself.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = np.empty(len(a), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(ar * br, ai * bi, out=out.real)
        np.subtract(ar * bi, ai * br, out=out.imag)
    out += 0.0
    for i in np.flatnonzero(~np.isfinite(out)).tolist():
        out[i] = np.vdot(a[i : i + 1], b[i : i + 1])
    return out


def wynn_epsilon(sums, lengths=None):
    """Best even-column entry of the epsilon tableau and its residual.

    Divisions by vanishing differences are masked with a huge sentinel and
    such entries never become candidates; the candidate with the smallest
    last-step difference wins, which keeps exactly-summable cases (rational
    generating functions) at residual zero instead of dividing 0 by 0.

    A 1-D `sums` gives (value, residual) for the whole sequence.  A 2-D
    `sums` holds one sequence per row and `lengths` (rows x k integers) the
    prefixes to evaluate on each row; the result is then a pair of complex
    and float arrays shaped like `lengths`.  Entry (k, j) of the tableau
    reads only s_j ... s_{j+k}, so every prefix of a row is read off the one
    table that row builds.

    A small table (few rows, short ones) is built as a scalar tableau, a
    larger one as a numpy table, by the rule above `_SCALAR_ENTRIES`; both
    give the same bits.  Either stops once every prefix is settled (residual
    exactly 0, or NaN at column 0), which no later column can change.
    """
    s = np.asarray(sums, dtype=complex)
    if s.ndim == 1:
        values, resids = wynn_epsilon(s[None, :], np.array([[len(s)]]))
        return complex(values[0, 0]), float(resids[0, 0])
    lengths = np.asarray(lengths)
    if (s.ndim != 2 or lengths.ndim != 2 or lengths.shape[0] != s.shape[0]
            or not np.issubdtype(lengths.dtype, np.integer)
            or (lengths.size and not 0 <= lengths.min() <= lengths.max() <= s.shape[1])):
        raise ValueError("a block of sums needs rows x k integer prefix lengths within its rows")
    if s.shape[0] * (lengths.max(initial=0) + _SCALAR_ROW_COST) <= _SCALAR_ENTRIES:
        return _epsilon_scalar(s, lengths)
    return _epsilon_table(s, lengths)


def _modulus(z: complex) -> float:
    """|z| as np.hypot gives it: infinite where CPython's abs overflows."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _tableau_row(row: list[complex], prefixes: list[int]) -> list[tuple[complex, float]]:
    """(value, residual) of each prefix of one sequence, off one scalar tableau.

    The entries follow the recurrence of `_epsilon_table` in CPython's
    complex arithmetic, which that kernel reproduces, so both give the same
    bits.  Each prefix keeps its best candidate, its residual and the last
    candidate it accepted while the even columns go by.  A prefix whose
    residual is exactly 0, or NaN at column 0, is settled and leaves the
    active ones after the column that settles it; the tableau ends at the
    last even column an active prefix reads.
    """
    width = max(prefixes, default=0)
    # [value, residual, last accepted value, prefix length]
    states = []
    for p in prefixes:
        if p == 0:
            states.append([0j, math.inf, 0j, 0])
        else:
            last = row[p - 1]
            states.append([last, _modulus(last - row[p - 2]) if p >= 2 else math.inf, last, p])
    one, sentinel = 1 + 0j, _SENTINEL
    # the prefixes a later column can still change: a residual of exactly 0,
    # or a NaN one of the last partial sum, is never beaten
    active = [st for st in states if st[1] > 0]
    # prefix p reads the even columns k <= p - 1; the tableau ends at the
    # last one an active prefix reads
    stop = (max([st[3] for st in active], default=1) - 1) // 2 * 2
    # the recurrence starts from the sums + 0j, which holds no negative zero
    prev2, prev = [0j] * width, [x + 0j for x in row[:width]]
    for k in range(1, width):
        if k > stop:
            break
        # 1 / d exactly as 1.0 / d; a zero or non-finite d gives the sentinel
        cur = [q + one / d if (d := b - a) and d - d == 0j else sentinel
               for a, b, q in zip(prev, prev[1:], prev2[1:])]
        if k % 2 == 0:
            settled = False
            for st in active:
                j = st[3] - 1 - k
                if j < 0:
                    continue
                v = cur[j]
                if _modulus(v) < _USABLE:
                    # measured against its left neighbour, or without a usable
                    # one against the last candidate accepted before it
                    base = cur[j - 1] if j and _modulus(cur[j - 1]) < _USABLE else st[2]
                    resid = _modulus(v - base)
                    # the first of equal residuals wins, and nothing beats a NaN
                    # residual of the last partial sum
                    if resid < st[1]:
                        st[0], st[1] = v, resid
                        settled = settled or resid == 0
                    st[2] = v
            if settled:
                active = [st for st in active if st[1] > 0]
                stop = (max([st[3] for st in active], default=1) - 1) // 2 * 2
        prev2, prev = prev, cur
    return [(v, r) for v, r, _, _ in states]


def _epsilon_scalar(s: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_epsilon_table` by one scalar tableau per row."""
    got = [pair for r, prefixes in enumerate(lengths.tolist())
           for pair in _tableau_row(s[r, :max(prefixes, default=0)].tolist(), prefixes)]
    values = np.array([v for v, _ in got], dtype=complex).reshape(lengths.shape)
    resids = np.array([r for _, r in got], dtype=float).reshape(lengths.shape)
    return values, resids


def _epsilon_table(s: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column epsilon tableau of a block of partial sums.

    The rows are laid end to end and every column is computed over the
    whole flat line as one complex array, so a column costs seven numpy
    calls on preallocated buffers.  Entries whose window crosses into the
    next row are never read.  The arithmetic is CPython's complex
    arithmetic, so a block gives bit for bit what a scalar tableau gives on
    each prefix: np.reciprocal(d) is CPython's (1+0j)/d (Smith's method,
    branching on the larger part of d) except for the sign of a zero part.
    That sign cannot reach an entry, because the recurrence starts from the
    sums + 0j: no column then holds a negative zero, and a sum is -0 only
    when both addends are.  |z| is hypot(re, im), and the minimum keeps the
    first of equal residuals and never moves off a NaN first residual.

    The table ends at the last even column a live prefix reads.  A prefix dies
    when it settles: its column-0 residual is 0 or NaN, or a usable
    candidate equals its usable left neighbour (residual exactly 0).  No
    later candidate can then win, so the selection below, run over the
    columns built, gives the bits of the full table.  Column 0 is tested
    before the loop and the later even columns in blocks of `_SETTLE_EVERY`
    (`_settle`), so a table stops at most 2 x _SETTLE_EVERY columns after
    its last prefix settles.
    """
    n = lengths.ravel()
    q = len(n)
    width = int(n.max(initial=0))
    if width == 0:
        return np.zeros(lengths.shape, dtype=complex), np.full(lengths.shape, math.inf)
    flat = np.ascontiguousarray(s[:, :width]).ravel()
    size = len(flat)
    # Candidates are the last entry of each even column a prefix reaches,
    # column 0 (the raw partial sums) included; each is measured by its gap
    # to the entry before it.  Column k holds both k places left of the flat
    # positions of the prefix's last partial sum and the one before it.
    ends = np.arange(s.shape[0]).repeat(lengths.shape[1]) * width + n - 1
    ends = np.concatenate([ends, ends - 1])
    picked = np.empty(((width + 1) // 2, 2 * q), dtype=complex)
    np.take(flat, ends, mode="clip", out=picked[0])
    # three rotating tableau columns, e_(k-2), e_(k-1) and the one being
    # filled, each with its views shifted by one place
    cols = [(c, c[1:], c[:-1]) for c in (np.zeros(size, dtype=complex), flat + 0j, np.zeros(size, dtype=complex))]
    d = np.empty(size - 1, dtype=complex)
    mask, zero = np.empty((2, size - 1), dtype=bool)
    with np.errstate(all="ignore"):
        # the prefixes a later column can still change: a residual of exactly
        # 0, or a NaN one of the last partial sum, is never beaten (a prefix
        # of fewer than 3 sums reads no later candidate either way)
        live = np.abs(picked[0, :q] - picked[0, q:]) > 0
        # prefix i reads the even columns k <= n_i - 1
        stop = (int(n[live].max(initial=1)) - 1) // 2 * 2
        # the candidate pairs still to compare: in reach, of a live prefix
        open_pairs = (np.arange(0, width, 2)[:, None] < n - 1) & live
        built = checked = 1
        for k in range(1, width):
            if k > stop:
                break
            (_, prev2_hi, _), (_, prev_hi, prev_lo), (cur, _, cur_lo) = cols
            np.subtract(prev_hi, prev_lo, out=d)
            np.reciprocal(d, out=cur_lo)
            np.add(prev2_hi, cur_lo, out=cur_lo)
            # the sentinel where d is zero or not finite (finite <= zero)
            np.isfinite(d, out=mask)
            np.equal(d, 0, out=zero)
            np.less_equal(mask, zero, out=mask)
            np.copyto(cur_lo, _SENTINEL, where=mask)
            if k % 2 == 0:
                np.take(cur, ends - k, mode="clip", out=picked[built])
                built += 1
                if built - checked == _SETTLE_EVERY:
                    if _settle(picked, checked, built, live, open_pairs):
                        stop = (int(n[live].max(initial=1)) - 1) // 2 * 2
                    checked = built
            cols = cols[1:] + cols[:1]

        picked = picked[:built]
        reach = np.concatenate([n, n - 1])
        # hypot is NaN or infinite unless both parts are finite
        usable = (np.arange(0, 2 * built, 2)[:, None] < reach) & (np.hypot(picked.real, picked.imag) < _USABLE)
        usable[0] = reach > 0  # the partial sums count whatever they hold
        last, ok, has_pair = picked[:, :q], usable[:, :q], usable[:, q:]
        # an entry without a left neighbour is measured against the last
        # candidate accepted before it
        accepted = np.maximum.accumulate(np.where(ok, np.arange(len(ok))[:, None], 0), axis=0)
        prior = last[np.concatenate([accepted[:1], accepted[:-1]]), np.arange(q)]
        gap = last - np.where(has_pair, picked[:, q:], prior)
        resid = np.hypot(gap.real, gap.imag)
        resid[0, n < 2] = math.inf
        # the first of equal residuals wins, and a NaN residual of the last
        # partial sum wins outright, as np.argmin stops at the first NaN
        key = np.where(ok & ~np.isnan(resid), resid, math.inf)
        key[0] = resid[0]
        pick = (np.argmin(key, axis=0), np.arange(q))
    return np.where(n >= 1, last[pick], 0j).reshape(lengths.shape), key[pick].reshape(lengths.shape)


def _settle(picked: np.ndarray, lo: int, hi: int, live: np.ndarray, open_pairs: np.ndarray) -> bool:
    """Retire the prefixes that even columns lo .. hi-1 of `picked` settle; did any settle?

    A usable candidate equal to its left neighbour has residual exactly 0,
    which no later candidate beats.  One comparison over the block's open
    pairs finds the equal ones, and only those are tested for usability; a
    settled prefix leaves `live` and `open_pairs`.
    """
    q = len(live)
    hits = (picked[lo:hi, :q] == picked[lo:hi, q:]) & open_pairs[lo:hi]
    if not hits.any():
        return False
    c, i = hits.nonzero()
    i = i[np.abs(picked[lo + c, i]) < _USABLE]
    live[i] = False
    open_pairs[:, i] = False
    return len(i) > 0


@dataclass(frozen=True)
class _SeriesOutcome:
    value: complex | None
    verdict: str
    tail: float
    used_degree: int
    rule: str


def _shrinking(mags: np.ndarray) -> np.ndarray:
    """Per row: is the largest |term| of the last quarter below _SHRINK x that of the quarter before?"""
    q = mags.shape[1] // 4
    return mags[:, -q:].max(axis=1) < _SHRINK * mags[:, -2 * q:-q].max(axis=1)


def _epsilon_check(w: np.ndarray) -> list[tuple[complex, float]]:
    """(value, residual) of the epsilon limit of each row's partial sums.

    The partial sums run over all of a row's terms, and epsilon reads the
    last _EPS_TERMS of them.  The residual is the larger of the tableau
    residual and the gap to the value of the shortened (3/4) window; both
    windows are read off one epsilon call for the whole block.
    """
    sums = np.cumsum(w, axis=1)[:, -_EPS_TERMS:]
    width = sums.shape[1]
    lengths = np.array([[width, max(8, 3 * width // 4)]] * len(w))
    values, resids = wynn_epsilon(sums, lengths)
    return [(v_full, max(r_full, abs(v_full - v_part)))
            for (v_full, v_part), (r_full, _) in zip(values.tolist(), resids.tolist())]


def _rules(block: np.ndarray, degrees: np.ndarray, finite: bool, cfg: RegularizationConfig) -> list[_SeriesOutcome]:
    """Outcome of each weighted row of a block sharing one nonzero pattern.

    Every rule is array work over the whole block.  The rows the rules
    before epsilon leave open, and whose terms shrink across the epsilon
    window, share one epsilon call for both the full and the shortened
    window; a row's total is its own 1-D sum, which keeps its bits.
    """
    nz = block[0].nonzero()[0]
    if len(nz) == 0:
        # nothing to sum: the window is exactly zero
        used = int(degrees[-1]) if len(degrees) else 0
        return [_SeriesOutcome(0j, "converged", 0.0, used, "finite")] * len(block)
    w = block[:, nz]
    used = int(degrees[nz[-1]])
    if finite:
        return [_SeriesOutcome(complex(np.sum(row)), "converged", 0.0, used, "finite") for row in w]

    tol = cfg.tolerance
    mags = np.abs(w)
    outcomes: list[_SeriesOutcome | None] = [None] * len(block)

    # divergent: persistent non-vanishing terms past the degree threshold
    tail_sel = degrees[nz] > _DIVERGENCE_DEGREE
    if np.count_nonzero(tail_sel) >= _DIVERGENCE_WINDOW:
        pos = tail_sel.nonzero()[0][-_DIVERGENCE_WINDOW:]
        window = mags[:, pos]
        ratios = window[:, 1:] / window[:, :-1]
        growing = (window >= tol).all(axis=1) & (ratios >= 1.0 - _FLAT).all(axis=1)
        for i in growing.nonzero()[0].tolist():
            # ratios of |c_n| with c_n hypergeometric follow rho*(1 + b/n), so
            # the intercept of a fit against 1/n extrapolates the ratio limit;
            # locally growing but eventually geometric tails (rho < 1) must
            # not be called divergent on a window cut before the turnaround
            rho_lim = float(np.polyfit(1.0 / pos[1:], ratios[i], 1)[1])
            if rho_lim >= 1.0 - _FLAT:
                outcomes[i] = _SeriesOutcome(None, "divergent", math.inf, used, "divergence_fit")

    # geometric tail; the magnitudes are positive by the shared pattern, so a
    # ratio is NaN only next to a NaN magnitude, which no rho < 1 passes
    if len(nz) > _RATIO_WINDOW and None in outcomes:
        last = mags[:, -(_RATIO_WINDOW + 1):]
        rho = (last[:, 1:] / last[:, :-1]).max(axis=1)
        fits = (rho < 1.0) & (last[:, 1:] <= (tol * (1.0 - rho))[:, None]).all(axis=1)
        for i in fits.nonzero()[0].tolist():
            if outcomes[i] is None:
                r = float(rho[i])
                tail = float(last[i, -1]) * r / (1.0 - r)
                outcomes[i] = _SeriesOutcome(complex(np.sum(w[i])), "converged", tail, used, "geometric_tail")

    open_rows = [i for i, out in enumerate(outcomes) if out is None]
    reasons = dict.fromkeys(open_rows, "window_too_short")
    if len(nz) >= 8 and open_rows:
        # epsilon on the partial sums of terms that do not shrink returns the
        # analytic continuation, not a sum: those rows never reach it
        shrinks = _shrinking(mags[open_rows, -_EPS_TERMS:]).tolist()
        reasons = {i: "epsilon_residual" if ok else "terms_not_shrinking" for i, ok in zip(open_rows, shrinks)}
        tried = [i for i, ok in zip(open_rows, shrinks) if ok]
        if tried:
            for i, (value, resid) in zip(tried, _epsilon_check(w[tried])):
                if math.isfinite(resid) and resid <= tol:
                    outcomes[i] = _SeriesOutcome(value, "converged", resid, used, "epsilon")
    for i, reason in reasons.items():
        if outcomes[i] is None:
            outcomes[i] = _SeriesOutcome(None, "undecided", math.inf, used, reason)
    return outcomes


def _pattern_blocks(rows: np.ndarray) -> list[list[int]]:
    """Row indices grouped by nonzero pattern, in order of first appearance."""
    groups: dict[bytes, list[int]] = {}
    for i, mask in enumerate(rows != 0):
        groups.setdefault(mask.tobytes(), []).append(i)
    return list(groups.values())


def _scaled(terms: np.ndarray, degrees: np.ndarray, ts) -> np.ndarray:
    """(t x degree) matrix of the terms weighted by t^{2d}."""
    return terms * np.asarray(ts, dtype=float)[:, None] ** (2.0 * degrees)


def _series(terms: np.ndarray, finite: bool, cfg: RegularizationConfig, ts=None) -> list[_SeriesOutcome]:
    """Outcome of each t in ts (terms weighted by t^{2d}), or of the plain row if ts is None."""
    degrees = np.arange(len(terms))
    # the plain row stays unweighted: a complex product with 1.0 turns an
    # infinite imaginary part into a NaN real part and can flip a signed zero
    rows = terms[None, :] if ts is None else _scaled(terms, degrees, ts)
    outcomes: list = [None] * len(rows)
    for idx in _pattern_blocks(rows):
        for i, out in zip(idx, _rules(rows if len(idx) == len(rows) else rows[idx], degrees, finite, cfg)):
            outcomes[i] = out
    return outcomes


def _report(out: _SeriesOutcome, method: str, **fields) -> PairingReport:
    return PairingReport(
        value=out.value,
        method=method,
        verdict=out.verdict,
        rule=out.rule,
        converged=out.verdict == "converged",
        truncation_degree=out.used_degree,
        tail_estimate=out.tail,
        **fields,
    )


class _PairData:
    """One pair's term vector, its finite flag and, once asked for, its plain outcome.

    The pair is held through weak references, so the memo never keeps a
    series alive; the element identities and the config's value are the key.
    """

    __slots__ = ("_phi", "_psi", "cfg", "terms", "finite", "_plain")

    def __init__(self, phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig):
        terms, finite = degree_terms(phi, psi, cfg.max_degree)
        terms.setflags(write=False)
        self._phi, self._psi = weakref.ref(phi), weakref.ref(psi)
        self.cfg, self.terms, self.finite = cfg, terms, finite
        self._plain = None

    def holds(self, phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig) -> bool:
        # a dead reference returns None, so a new element at a reused id misses
        return self._phi() is phi and self._psi() is psi and self.cfg == cfg

    def plain(self) -> _SeriesOutcome:
        if self._plain is None:
            self._plain = _series(self.terms, self.finite, self.cfg)[0]
        return self._plain


# the last pair evaluated: pairing_1, pairing_t and abel_pairing on one pair
# build its terms once, and the plain rules run once for it
_last_pair: _PairData | None = None


def _pair_data(phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig) -> _PairData:
    global _last_pair
    # read once: a caller keeps the entry it read or built, so a thread that
    # replaces the memo meanwhile costs a rebuild, never a wrong pair's data
    data = _last_pair
    if data is None or not data.holds(phi, psi, cfg):
        data = _last_pair = _PairData(phi, psi, cfg)
    return data


def pairing_1(phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Plain degreewise series pairing sum_d <phi_d | psi_d>."""
    return _report(_pair_data(phi, psi, cfg or RegularizationConfig()).plain(), "series_1")


def pairing_t(phi: GradedElement, psi: GradedElement, t: float, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Scaled pairing sum_d <phi_d | psi_d> t^{2d} for 0 < t < 1."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    cfg = cfg or RegularizationConfig()
    data = _pair_data(phi, psi, cfg)
    return _report(_series(data.terms, data.finite, cfg, [t])[0], "scaled_t", t_grid=(t,))


def _log_growth(terms: np.ndarray, fit: np.ndarray) -> float:
    """beta of a least-squares fit log|a_d| = alpha + beta d + gamma log(d+1) over `fit`.

    By Cauchy-Hadamard the radius of convergence of sum a_d x^d is exp(-beta),
    up to the fit's slack.  NaN when a magnitude there is not finite.
    """
    d = fit.astype(float)
    design = np.column_stack([np.ones_like(d), d, np.log1p(d)])
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(np.abs(terms[fit]))
    if not np.isfinite(y).all():
        return math.nan
    return float(np.linalg.lstsq(design, y, rcond=None)[0][1])


def _abel_off_grid(terms: np.ndarray, plain: _SeriesOutcome, cfg: RegularizationConfig) -> _SeriesOutcome | None:
    """The Abel limit from the plain terms and their plain outcome, or None when the grid must decide.

    In order: a convergent plain series sums to its Abel limit (Abel's
    theorem); the epsilon continuation of the plain partial sums, when the
    terms' radius of convergence is at least one; a pole at s = 1, when the
    terms keep one phase and do not decay.  The radius fit, the phase and the
    decay are read over all the nonzero terms (the fit and the decay over
    their second half); epsilon sees the partial sums of all of them, and
    is tried only when the fit allows a radius of at least one.
    """
    if plain.verdict == "converged":
        return replace(plain, rule="plain_sum")
    # only these two leave a window whose epsilon limit was never tried
    if plain.rule not in ("divergence_fit", "terms_not_shrinking"):
        return None
    nz = terms.nonzero()[0]
    fit = nz[len(nz) // 2:]
    beta = _log_growth(terms, fit)
    if beta <= _MAX_BETA:
        (value, resid), = _epsilon_check(terms[None, nz])
        if math.isfinite(resid) and resid <= cfg.tolerance:
            return _SeriesOutcome(value, "converged", resid, plain.used_degree, "continuation")
    # a pole needs terms that do not decay: a flat or rising fit, and no
    # magnitude below the one before it; a slow decay leaves the grid to decide
    phase = terms[nz] / np.abs(terms[nz])
    mags = np.abs(terms[fit])
    if (np.abs(phase - phase[0]).max() <= _PHASE_TOL and beta >= -_FLAT
            and (mags[1:] >= (1.0 - _FLAT) * mags[:-1]).all()):
        return _SeriesOutcome(None, "divergent", math.inf, plain.used_degree, "pole")
    return None


def abel_pairing(phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Abel limit lim_{t -> 1} sum_d <phi_d | psi_d> t^{2d}.

    The routes off the plain terms come first (`_abel_off_grid`); their
    report carries no grid.  Only when they all decline is the scaled
    pairing summed along the configured grid t_k -> 1 and extrapolated by
    the epsilon algorithm across the grid values.  The first grid point that
    does not converge decides the report.  Grid values that grow without
    bound are reported as divergent rather than extrapolated, since
    extrapolating them would produce an antilimit, not an Abel limit.
    """
    cfg = cfg or RegularizationConfig()
    data = _pair_data(phi, psi, cfg)
    terms = data.terms
    out = _abel_off_grid(terms, data.plain(), cfg)
    if out is not None:
        # a converged route's tail is its own residual
        return _report(out, "abel", extrapolation_residual=out.tail if out.verdict == "converged" else math.nan)
    grid = cfg.t_grid()
    values: list[complex] = []
    used = 0
    worst_tail = 0.0
    failed = failed_t = None
    for t, out in zip(grid, _series(terms, data.finite, cfg, grid)):
        used = max(used, out.used_degree)
        if out.verdict != "converged":
            failed = replace(out, rule="grid") if out.verdict == "divergent" else out
            failed_t = t
            break
        worst_tail = max(worst_tail, out.tail)
        values.append(out.value)
    # unbounded growth toward t = 1 means the Abel limit does not exist
    last = np.abs(np.array(values[-6:]))
    if failed is None and len(last) == 6 and np.all(np.diff(last) > 0) and last[-1] > 4.0 * (last[0] + 1e-30):
        failed, failed_t = _SeriesOutcome(None, "divergent", math.inf, used, "grid"), grid[-1]
    if failed is not None:
        return _report(replace(failed, used_degree=used), "abel", t_grid=tuple(grid), failed_t=failed_t)

    value, resid = wynn_epsilon(values)
    ok = math.isfinite(resid) and resid <= cfg.tolerance
    out = _SeriesOutcome(value if ok else None, "converged" if ok else "undecided", worst_tail, used,
                         "grid" if ok else "epsilon_residual")
    return _report(out, "abel", t_grid=tuple(grid), extrapolation_residual=float(resid))


def number_op_pow(phi: GradedElement, r: float) -> GradedElement:
    """Scale the degree-d component by d^r; degree zero is left fixed."""
    lay = phi._layout
    weights = [float(d) ** r if d else 1.0 for d in lay.degrees]
    out = phi._buf * np.repeat(weights, np.diff(lay.offsets))
    if lay.degrees[:1] == (0,):
        out[0] = phi._buf[0]
    return GradedElement._fresh(phi.dim, lay, out, phi.max_degree, phi.truncated)


def graded_unitary_apply(blocks: dict[int, np.ndarray], phi: GradedElement) -> GradedElement:
    """Apply a degreewise unitary, one block per stored degree."""
    lay = phi._layout
    out = np.empty_like(phi._buf)
    for d, start, end in zip(lay.degrees, lay.offsets, lay.offsets[1:]):
        u = blocks.get(d)
        if u is None:
            raise ValueError(f"no unitary block for degree {d}")
        u = np.asarray(u, dtype=complex)
        nd = end - start
        if u.shape != (nd, nd):
            raise DimensionMismatch(f"degree {d} block must be {nd} x {nd}")
        with np.errstate(invalid="ignore", over="ignore"):
            gap = np.abs(u.conj().T @ u - np.eye(nd)).max()
        # a NaN gap fails this test too
        if not gap <= _UNITARY_TOL:
            raise ValueError(f"degree {d} block is not unitary within {_UNITARY_TOL}")
        out[start:end] = u @ phi._buf[start:end]
    return GradedElement._fresh(phi.dim, lay, out, phi.max_degree, phi.truncated)


def hoelder_norm(phi: GradedElement, p: float, truncation: int | None = None) -> HoelderNorms:
    """l^p norm of the degreewise 2-norms up to the truncation degree."""
    if not p >= 1.0:  # NaN included
        raise ValueError("p must be >= 1")
    upper = phi.max_degree if truncation is None else min(truncation, phi.max_degree)
    lay = phi._layout
    k = lay.count(upper)
    coeffs = phi._buf[: lay.offsets[k]]
    squares = coeffs.real**2 + coeffs.imag**2
    norms = np.sqrt(np.add.reduceat(squares, lay.offsets[:k])) if k else np.zeros(0)
    if math.isinf(p):
        value = float(norms.max(initial=0.0))
    else:
        value = float(np.sum(norms**p) ** (1.0 / p))
    return HoelderNorms(p=p, value=value, truncation_degree=upper)


def hoelder_pairing_check(phi: GradedElement, psi: GradedElement, p: float, q: float) -> HoelderCheck:
    """Slack of sum_d |<phi_d|psi_d>| against the product of conjugate norms.

    The terms come from `degree_terms`, which refuses a polynomial factor
    that reaches past a truncated factor's horizon.
    """
    inv = (0.0 if math.isinf(p) else 1.0 / p) + (0.0 if math.isinf(q) else 1.0 / q)
    if not abs(inv - 1.0) <= 1e-12:  # NaN included
        raise ValueError(f"exponents are not conjugate: 1/p + 1/q = {inv}")
    terms, _ = degree_terms(phi, psi)
    upper = len(terms) - 1
    total = float(np.abs(terms).sum())
    np_ = hoelder_norm(phi, p, upper).value
    nq_ = hoelder_norm(psi, q, upper).value
    return HoelderCheck(slack=np_ * nq_ - total, sum_abs=total, norm_p=np_, norm_q=nq_)


def sequence_element(values) -> GradedElement:
    """One-dimensional truncated series from a scalar-per-degree sequence."""
    vals = np.array(np.ravel(values), dtype=complex)  # a copy the element owns
    return GradedElement._fresh(1, _layout(1, tuple(range(len(vals)))), vals, len(vals) - 1, True)


def pair_swap(values) -> np.ndarray:
    """Swap entries (1,2), (3,4), ... of a degree-indexed sequence; fixes 0.

    The tail entry is kept fixed when the swap partner would fall outside
    the stored range, so the horizon must be even for a clean involution.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    out = vals.copy()
    n = len(vals)
    for d in range(1, n - 1, 2):
        out[d], out[d + 1] = vals[d + 1], vals[d]
    return out


def sequence_noninvariance_demo() -> tuple[PairingReport, PairingReport]:
    """Abel pairing before and after a norm-preserving pair swap (dim one).

    With lambda_d = 1 and mu_d = (-1)^d the scaled pairing is 1/(1+t^2) with
    Abel limit 1/2; after swapping the basis pairs the limit moves to 3/2,
    exhibiting that the Abel pairing is not invariant under unitaries of the
    full graded space (degreewise unitaries do preserve it).
    """
    horizon = RegularizationConfig().max_degree // 2 * 2  # even, for a clean swap
    lam = np.ones(horizon + 1)
    mu = np.array([(-1.0) ** d for d in range(horizon + 1)])
    before = abel_pairing(sequence_element(lam), sequence_element(mu))
    after = abel_pairing(sequence_element(pair_swap(lam)), sequence_element(pair_swap(mu)))
    return before, after


def divergence_demo(m: int) -> list[float]:
    """Squared-norm ratios of consecutive Gaussian terms for conjugation.

    Returns c_{n+1} / c_n for c_n = |zeta^n / n!|^2, which equals
    (n + m/2) / (n + 1); for m > 2 the ratios exceed one, so the self-pairing
    terms grow and the plain series pairing diverges on the boundary.
    """
    from .antilinear import conjugation
    from .gaussian import GaussianSeed, gaussian_series

    seed = GaussianSeed.from_map(conjugation(m))
    series = gaussian_series(seed, cap=2 * _DEMO_POWERS)
    c = [float(np.vdot(series.component(2 * n), series.component(2 * n)).real) for n in range(_DEMO_POWERS + 1)]
    return [c[n + 1] / c[n] for n in range(_DEMO_POWERS)]
