"""Degreewise series pairings, t-scaled regularization, and the Abel limit.

The primitive object is the term sequence a_d = <phi_d | psi_d>.  The plain
pairing sums it directly, the scaled pairing weights degree d by t^{2d}, and
the Abel pairing evaluates the scaled pairing on a grid t_k -> 1 and
extrapolates.  Convergence is never assumed: each evaluation carries a
verdict (converged / divergent / undecided) and a tail or residual estimate,
and a value is only reported for converged evaluations.

Verdict rules, in the order applied to the nonzero terms:
  * finite inputs (no truncation in play) sum exactly;
  * terms that stay above tolerance with non-decreasing magnitudes over a
    20-term window past degree 50 are declared divergent;
  * a geometric tail (max ratio rho < 1 over the last 10 terms, all of them
    below tolerance * (1 - rho)) converges with tail |last| * rho / (1-rho);
  * otherwise the epsilon algorithm is applied to the partial sums and
    convergence is claimed only when the tableau residual and a
    shortened-window cross-check both sit below tolerance.

The plain, scaled and Abel pairings share one weighted-sum kernel: a term
matrix with one row per t (a single row for the plain and scaled pairings,
the whole grid for the Abel pairing).  The rules above run row by row, and
every row they leave open goes through one batched epsilon table, which
serves both the full and the shortened window of each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import GradedElement, basis_size
from .errors import DimensionMismatch, InsufficientHorizon

_DIVERGENCE_WINDOW = 20
_DIVERGENCE_DEGREE = 50
_RATIO_WINDOW = 10
_EPS_TERMS = 220
# Abel grid t_k = 1 - 2^-k for these k
_T_GRID_K = range(3, 13)
# sentinel for epsilon-table entries whose difference vanishes or is not finite
_HUGE = 1e300
# (real, imaginary) planes of the sentinel, and the signs that turn
# (1, ratio) / (ratio, 1) into CPython's numerators of 1/d
_SENTINEL = np.array([[_HUGE], [0.0]])
_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class RegularizationConfig:
    """Knobs for series evaluation and Abel extrapolation."""

    tolerance: float = 1e-8
    max_degree: int = 200

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
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


def _support_max(x: GradedElement) -> int:
    degs = x.nonzero_degrees()
    return degs[-1] if degs else -1


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
    # a polynomial factor reaching past a truncated factor's horizon leaves
    # genuinely missing terms; refuse rather than sum a hole
    for poly, series in ((phi, psi), (psi, phi)):
        if not poly.truncated and series.truncated and _support_max(poly) > series.max_degree:
            raise InsufficientHorizon(
                f"polynomial support {_support_max(poly)} exceeds horizon {series.max_degree}"
            )
    finite = (not phi.truncated) or (not psi.truncated)
    terms = np.zeros(upper + 1, dtype=complex)
    for d in sorted(set(phi.components) & set(psi.components)):
        if d <= upper:
            terms[d] = np.vdot(phi.components[d], psi.components[d])
    return terms, finite


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
    """
    s = np.asarray(sums, dtype=complex)
    if s.ndim == 1:
        values, resids = _epsilon_table(s[None, :], np.array([[len(s)]]))
        return complex(values[0, 0]), float(resids[0, 0])
    lengths = np.asarray(lengths)
    if (s.ndim != 2 or lengths.ndim != 2 or lengths.shape[0] != s.shape[0]
            or not np.issubdtype(lengths.dtype, np.integer)
            or (lengths.size and not 0 <= lengths.min() <= lengths.max() <= s.shape[1])):
        raise ValueError("a block of sums needs rows x k integer prefix lengths within its rows")
    return _epsilon_table(s, lengths)


def _epsilon_table(s: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column-by-column epsilon tableau of a block of partial sums.

    The rows are laid end to end and every column is computed over the
    whole flat line, with real and imaginary parts in two planes of one
    float array, so a column costs a fixed handful of numpy calls on
    preallocated buffers.  Entries whose window crosses into the next row
    are never read.  The arithmetic repeats CPython's complex arithmetic
    exactly, so a block gives bit for bit what a scalar tableau gives on
    each prefix: 1/d uses CPython's division formula (Smith's method,
    branching on the larger part of d), |z| is hypot(re, im), and the
    minimum keeps the first of equal residuals and never moves off a NaN
    first residual.
    """
    n = lengths.ravel()
    q = len(n)
    width = int(n.max(initial=0))
    if width == 0:
        return np.zeros(lengths.shape, dtype=complex), np.full(lengths.shape, math.inf)
    flat = np.ascontiguousarray(s[:, :width]).ravel()
    size = len(flat)
    # Candidates are the last entry of each even column a prefix reaches,
    # column 0 (the partial sums) included; each is measured by its gap to
    # the entry before it.  Column k holds both k places left of the flat
    # positions of the prefix's last partial sum and the one before it.
    ends = np.arange(s.shape[0]).repeat(lengths.shape[1]) * width + n - 1
    ends = np.concatenate([ends, ends - 1])
    picked = np.empty(((width + 1) // 2, 2, 2 * q))
    # three rotating tableau columns, e_(k-2), e_(k-1) and the one being
    # filled, each with its views shifted by one place
    planes = [np.zeros((2, size)), flat.view(float).reshape(size, 2).T.copy(), np.zeros((2, size))]
    np.take(planes[1], ends, axis=1, mode="clip", out=picked[0])
    cols = [(p, p[:, 1:], p[:, :-1]) for p in planes]
    d, unit, prod = np.empty((3, 2, size - 1))
    (d_re, d_im), (prod_re, prod_im) = d, prod
    by_re = np.empty(size - 1, dtype=bool)
    denom = np.empty(size - 1)
    bad = np.empty(size - 1, dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(1, width):
            (_, prev2_hi, _), (_, prev_hi, prev_lo), (cur, _, cur_lo) = cols
            np.subtract(prev_hi, prev_lo, out=d)
            # CPython divides 1 by d through ratio = (smaller part) / (larger
            # part); d / larger part is (1, ratio) or (ratio, 1)
            np.abs(d, out=prod)
            np.greater_equal(prod_re, prod_im, out=by_re)
            np.divide(d, np.where(by_re, d_re, d_im), out=unit)
            np.multiply(d, unit, out=prod)
            np.add(prod_re, prod_im, out=denom)
            unit *= _SIGNS
            unit += 0.0  # 0.0 - x and x + 0.0 never leave a negative zero
            unit /= denom
            np.add(prev2_hi, unit, out=cur_lo)
            # NaN exactly where d is zero or not finite
            np.copyto(cur_lo, _SENTINEL, where=np.isnan(denom, out=bad))
            if k % 2 == 0:
                np.take(cur, ends - k, axis=1, mode="clip", out=picked[k // 2])
            cols = cols[1:] + cols[:1]

        reach = np.concatenate([n, n - 1])
        # hypot is NaN or infinite unless both parts are finite
        usable = (np.arange(0, width, 2)[:, None] < reach) & (np.hypot(picked[:, 0], picked[:, 1]) < _HUGE / 10)
        usable[0] = reach > 0  # the partial sums count whatever they hold
        entry = np.empty(usable.shape, dtype=complex)
        entry.real, entry.imag = picked[:, 0], picked[:, 1]
        last, ok, has_pair = entry[:, :q], usable[:, :q], usable[:, q:]
        # an entry without a left neighbour is measured against the last
        # candidate accepted before it
        accepted = np.maximum.accumulate(np.where(ok, np.arange(len(ok))[:, None], 0), axis=0)
        prior = last[np.concatenate([accepted[:1], accepted[:-1]]), np.arange(q)]
        gap = last - np.where(has_pair, entry[:, q:], prior)
        resid = np.hypot(gap.real, gap.imag)
        resid[0, n < 2] = math.inf
        # the first of equal residuals wins, and a NaN residual of the last
        # partial sum wins outright, as np.argmin stops at the first NaN
        key = np.where(ok & ~np.isnan(resid), resid, math.inf)
        key[0] = resid[0]
        pick = (np.argmin(key, axis=0), np.arange(q))
    return np.where(n >= 1, last[pick], 0j).reshape(lengths.shape), key[pick].reshape(lengths.shape)


@dataclass(frozen=True)
class _SeriesOutcome:
    value: complex | None
    verdict: str
    converged: bool
    tail: float
    used_degree: int


def _rules(terms: np.ndarray, degrees: np.ndarray, finite: bool, cfg: RegularizationConfig):
    """Verdict of one weighted term sequence by the rules that need no table.

    An undecided outcome comes with the partial sums that the epsilon
    algorithm should still try, or None when the sequence is too short for
    it.
    """
    nz = np.flatnonzero(terms)
    used = int(degrees[-1]) if len(degrees) else 0
    if len(nz) == 0:
        return _SeriesOutcome(0j, "converged", True, 0.0, used), None
    w = terms[nz]
    wd = degrees[nz]
    total = complex(np.sum(w))
    if finite:
        return _SeriesOutcome(total, "converged", True, 0.0, int(wd[-1])), None

    tol = cfg.tolerance
    mags = np.abs(w)

    # divergent: persistent non-vanishing terms past the degree threshold
    tail_sel = wd > _DIVERGENCE_DEGREE
    if tail_sel.sum() >= _DIVERGENCE_WINDOW:
        pos = np.flatnonzero(tail_sel)[-_DIVERGENCE_WINDOW:]
        window = mags[pos]
        ratios = window[1:] / window[:-1]
        if np.all(window >= tol) and np.all(ratios >= 1.0 - 1e-9):
            # ratios of |c_n| with c_n hypergeometric follow rho*(1 + b/n), so
            # the intercept of a fit against 1/n extrapolates the ratio limit;
            # locally growing but eventually geometric tails (rho < 1) must
            # not be called divergent on a window cut before the turnaround
            rho_lim = float(np.polyfit(1.0 / pos[1:], ratios, 1)[1])
            if rho_lim >= 1.0 - 1e-9:
                return _SeriesOutcome(None, "divergent", False, math.inf, int(wd[-1])), None

    # geometric tail
    if len(mags) >= _RATIO_WINDOW + 1:
        last = mags[-(_RATIO_WINDOW + 1):]
        if np.all(last[:-1] > 0):
            rho = float(np.max(last[1:] / last[:-1]))
            if rho < 1.0 and np.all(last[1:] <= tol * (1.0 - rho)):
                tail = float(last[-1]) * rho / (1.0 - rho)
                return _SeriesOutcome(total, "converged", True, tail, int(wd[-1])), None

    undecided = _SeriesOutcome(None, "undecided", False, math.inf, int(wd[-1]))
    if len(w) >= 8:
        return undecided, np.cumsum(w[:_EPS_TERMS])
    return undecided, None


def _sum_weighted(rows, degrees: np.ndarray, finite: bool, cfg: RegularizationConfig) -> list[_SeriesOutcome]:
    """Apply the verdict rules to each row of already-weighted term sequences.

    The rows the cheap rules leave open go through one epsilon table, which
    gives both the full window and the shortened cross-check window of each;
    convergence is claimed only when the tableau residual and the gap
    between the two windows both sit below tolerance.
    """
    ruled = [_rules(terms, degrees, finite, cfg) for terms in rows]
    outcomes = [out for out, _ in ruled]
    pending = [(i, head) for i, (_, head) in enumerate(ruled) if head is not None]
    if not pending:
        return outcomes
    block = np.zeros((len(pending), max(len(head) for _, head in pending)), dtype=complex)
    lengths = np.empty((len(pending), 2), dtype=np.intp)
    for r, (_, head) in enumerate(pending):
        block[r, :len(head)] = head
        lengths[r] = len(head), max(8, 3 * len(head) // 4)
    values, resids = wynn_epsilon(block, lengths)
    for (i, _), (v_full, v_part), (r_full, _) in zip(pending, values.tolist(), resids.tolist()):
        resid = max(r_full, abs(v_full - v_part))
        if math.isfinite(resid) and resid <= cfg.tolerance:
            outcomes[i] = _SeriesOutcome(v_full, "converged", True, resid, outcomes[i].used_degree)
    return outcomes


def _scaled(terms: np.ndarray, degrees: np.ndarray, ts) -> np.ndarray:
    """(t x degree) matrix of the terms weighted by t^{2d}."""
    return terms * np.asarray(ts, dtype=float)[:, None] ** (2.0 * degrees)


def pairing_1(phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Plain degreewise series pairing sum_d <phi_d | psi_d>."""
    cfg = cfg or RegularizationConfig()
    terms, finite = degree_terms(phi, psi, cfg.max_degree)
    # the row stays unweighted: a complex product with 1.0 turns an infinite
    # imaginary part into a NaN real part and can flip a signed zero
    out = _sum_weighted([terms], np.arange(len(terms)), finite, cfg)[0]
    return PairingReport(
        value=out.value,
        method="series_1",
        verdict=out.verdict,
        converged=out.converged,
        truncation_degree=out.used_degree,
        tail_estimate=out.tail,
    )


def pairing_t(phi: GradedElement, psi: GradedElement, t: float, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Scaled pairing sum_d <phi_d | psi_d> t^{2d} for 0 < t < 1."""
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")
    cfg = cfg or RegularizationConfig()
    terms, finite = degree_terms(phi, psi, cfg.max_degree)
    degrees = np.arange(len(terms))
    out = _sum_weighted(_scaled(terms, degrees, [t]), degrees, finite, cfg)[0]
    return PairingReport(
        value=out.value,
        method="scaled_t",
        verdict=out.verdict,
        converged=out.converged,
        truncation_degree=out.used_degree,
        tail_estimate=out.tail,
        t_grid=(t,),
    )


def abel_pairing(phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Abel limit of the scaled pairing along the configured grid t_k -> 1.

    Requires every grid point to converge on its own; the limit value comes
    from the epsilon algorithm across the grid values.  Grid values that
    grow without bound are reported as divergent rather than extrapolated,
    since extrapolating them would produce an antilimit, not an Abel limit.
    The whole grid is summed at once; its outcomes are read in grid order
    and the first one that fails decides the report.
    """
    cfg = cfg or RegularizationConfig()
    grid = cfg.t_grid()
    terms, finite = degree_terms(phi, psi, cfg.max_degree)
    degrees = np.arange(len(terms))
    values: list[complex] = []
    used = 0
    worst_tail = 0.0
    verdict = failed_t = None
    for t, out in zip(grid, _sum_weighted(_scaled(terms, degrees, grid), degrees, finite, cfg)):
        used = max(used, out.used_degree)
        if not out.converged:
            verdict, failed_t = out.verdict, t
            break
        worst_tail = max(worst_tail, out.tail)
        values.append(out.value)
    # unbounded growth toward t = 1 means the Abel limit does not exist
    last = np.abs(np.array(values[-6:]))
    growing = len(last) == 6 and np.all(np.diff(last) > 0) and last[-1] > 4.0 * (last[0] + 1e-30)
    if failed_t is None and growing:
        verdict, failed_t = "divergent", grid[-1]
    if failed_t is not None:
        return PairingReport(
            value=None, method="abel", verdict=verdict, converged=False,
            truncation_degree=used, tail_estimate=math.inf,
            t_grid=tuple(grid), failed_t=failed_t,
        )

    value, resid = wynn_epsilon(values)
    ok = math.isfinite(resid) and resid <= cfg.tolerance
    return PairingReport(
        value=value if ok else None,
        method="abel",
        verdict="converged" if ok else "undecided",
        converged=ok,
        truncation_degree=used,
        tail_estimate=worst_tail,
        t_grid=tuple(grid),
        extrapolation_residual=float(resid),
    )


def number_op_pow(phi: GradedElement, r: float) -> GradedElement:
    """Scale the degree-d component by d^r; degree zero is left fixed."""
    comps = {}
    for d, arr in phi.components.items():
        comps[d] = arr if d == 0 else (float(d) ** r) * arr
    return GradedElement(phi.dim, comps, phi.max_degree, phi.truncated)


def graded_unitary_apply(blocks: dict[int, np.ndarray], phi: GradedElement, tol: float = 1e-10) -> GradedElement:
    """Apply a degreewise unitary, one block per stored degree."""
    comps = {}
    for d, arr in phi.components.items():
        u = blocks.get(d)
        if u is None:
            raise ValueError(f"no unitary block for degree {d}")
        u = np.asarray(u, dtype=complex)
        nd = basis_size(phi.dim, d)
        if u.shape != (nd, nd):
            raise DimensionMismatch(f"degree {d} block must be {nd} x {nd}")
        if np.abs(u.conj().T @ u - np.eye(nd)).max() > tol:
            raise ValueError(f"degree {d} block is not unitary within {tol}")
        comps[d] = u @ arr
    return GradedElement(phi.dim, comps, phi.max_degree, phi.truncated)


def hoelder_norm(phi: GradedElement, p: float, truncation: int | None = None) -> HoelderNorms:
    """l^p norm of the degreewise 2-norms up to the truncation degree."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    upper = phi.max_degree if truncation is None else min(truncation, phi.max_degree)
    norms = [float(np.linalg.norm(arr)) for d, arr in sorted(phi.components.items()) if d <= upper]
    if math.isinf(p):
        value = max(norms, default=0.0)
    else:
        value = float(np.sum(np.array(norms) ** p) ** (1.0 / p)) if norms else 0.0
    return HoelderNorms(p=p, value=value, truncation_degree=upper)


def hoelder_pairing_check(
    phi: GradedElement, psi: GradedElement, p: float, q: float, truncation: int | None = None
) -> HoelderCheck:
    """Slack of sum_d |<phi_d|psi_d>| against the product of conjugate norms.

    The terms come from `degree_terms`, which refuses a polynomial factor
    that reaches past a truncated factor's horizon.
    """
    inv = (0.0 if math.isinf(p) else 1.0 / p) + (0.0 if math.isinf(q) else 1.0 / q)
    if abs(inv - 1.0) > 1e-12:
        raise ValueError(f"exponents are not conjugate: 1/p + 1/q = {inv}")
    terms, _ = degree_terms(phi, psi, truncation)
    upper = len(terms) - 1
    total = float(np.abs(terms).sum())
    np_ = hoelder_norm(phi, p, upper).value
    nq_ = hoelder_norm(psi, q, upper).value
    return HoelderCheck(slack=np_ * nq_ - total, sum_abs=total, norm_p=np_, norm_q=nq_)


def sequence_element(values, truncated: bool = True) -> GradedElement:
    """One-dimensional graded element from a scalar-per-degree sequence."""
    vals = np.asarray(values, dtype=complex).ravel()
    comps = {d: np.array([vals[d]]) for d in range(len(vals))}
    return GradedElement(1, comps, max_degree=len(vals) - 1, truncated=truncated)


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


def sequence_noninvariance_demo(cfg: RegularizationConfig | None = None) -> tuple[PairingReport, PairingReport]:
    """Abel pairing before and after a norm-preserving pair swap (dim one).

    With lambda_d = 1 and mu_d = (-1)^d the scaled pairing is 1/(1+t^2) with
    Abel limit 1/2; after swapping the basis pairs the limit moves to 3/2,
    exhibiting that the Abel pairing is not invariant under unitaries of the
    full graded space (degreewise unitaries do preserve it).
    """
    cfg = cfg or RegularizationConfig()
    horizon = cfg.max_degree - (cfg.max_degree % 2)  # even horizon for a clean swap
    lam = np.ones(horizon + 1)
    mu = np.array([(-1.0) ** d for d in range(horizon + 1)])
    before = abel_pairing(sequence_element(lam), sequence_element(mu), cfg)
    after = abel_pairing(
        sequence_element(pair_swap(lam)), sequence_element(pair_swap(mu)), cfg
    )
    return before, after


def divergence_demo(m: int, powers: int = 31) -> list[float]:
    """Squared-norm ratios of consecutive Gaussian terms for conjugation.

    Returns c_{n+1} / c_n for c_n = |zeta^n / n!|^2, which equals
    (n + m/2) / (n + 1); for m > 2 the ratios exceed one, so the self-pairing
    terms grow and the plain series pairing diverges on the boundary.
    """
    from .antilinear import conjugation
    from .gaussian import GaussianSeed, gaussian_series

    seed = GaussianSeed.from_map(conjugation(m))
    series = gaussian_series(seed, cap=2 * powers)
    c = [float(np.vdot(series.component(2 * n), series.component(2 * n)).real) for n in range(powers + 1)]
    return [c[n + 1] / c[n] for n in range(powers)]
