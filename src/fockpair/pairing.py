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
  * epsilon sees only terms whose largest |term| in the last quarter of the
    epsilon window (the last 220 nonzero terms) is below 0.9 x the largest
    in the quarter before; on terms that do not shrink it would return the
    analytic continuation, not a sum [terms_not_shrinking];
  * the epsilon algorithm is applied to the last 220 partial sums of all
    the nonzero terms, and convergence is claimed only when the tableau
    residual and a shortened-window cross-check both sit below tolerance
    [epsilon, else epsilon_residual].

The Abel pairing works from the plain terms alone and tries four routes, in
order.  A fit log|a_d| = alpha + beta d + gamma log(d+1) over the second
half of the nonzero terms places the radius of convergence at exp(-beta).
  1. the plain series' rules: a convergent series sums to its Abel limit
     (Abel's theorem) [plain_sum];
  2. when the plain terms do not shrink or diverge, and the fit gives
     beta <= 1e-3, a radius of at least one: the epsilon value of the plain
     partial sums, full and 3/4 window within tolerance [continuation];
  3. a fit of at least 10 terms whose beta exceeds 0.01 by three standard
     errors, on terms whose largest magnitude in the second half of the fit
     exceeds the largest in the first: a radius below one, so the scaled
     series has no sum for t near 1 [radius_below_one];
  4. terms of one phase that do not decay: the fit gives beta >= 0 and no
     magnitude in its range falls below the one before; a pole at s = 1
     [pole].
When all four decline, the Abel pairing is undecided for the plain series'
reason; terms that the plain rules call divergent do not shrink either
[terms_not_shrinking].

The pairings share one path, `_series`, which applies every rule above to
one term row: the plain terms, or the terms weighted by t^{2d}.  `_report`
turns an outcome into the report, and `_abel_report` runs the Abel routes
on a row and its plain outcome.  `terms_report` gives any of the three
reports for a term vector made elsewhere, such as the Gaussian stream of
`gaussian_terms`, through the same three functions.

Consecutive pairings of one pair share its term vector and its plain
outcome: a one-entry memo (`_pair_data`), keyed by the identity of phi and
psi through weak references and by the config's value, keeps the last
pair's read-only terms, its finite flag and, once something asks for it,
its plain outcome, so `pairing_1`, `pairing_t` and `abel_pairing` on one
pair call `degree_terms` once and run the plain rules once.  Elements are
immutable, so identity stands for content; the weak references keep no
series alive.

Every epsilon call reads one row of partial sums and at most two prefixes
of it, the full and the shortened window, off one scalar tableau in
CPython's complex arithmetic (`_tableau_row`).  The tableau stops building
columns once every prefix it evaluates is settled: its residual is exactly
0 (an even-column candidate equals its usable left neighbour, as on
rational generating functions and partial sums that have stopped changing)
or is the NaN of column 0.  A candidate replaces the best only with a
strictly smaller residual, and a NaN at column 0 wins outright, so no later
column can change a settled prefix and the bits are those of the full
tableau.  Only even columns hold candidates, so it builds no column past
the last even one a live prefix reads.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .algebra import GradedElement, _common_degrees, _gather, _layout, require_covered
from .config import RegularizationConfig
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
# a radius below one needs a fit of at least _RADIUS_FIT terms whose beta
# exceeds _RADIUS_BETA by _RADIUS_SIGMAS standard errors; a shorter fit of
# slowly decaying terms can read a spurious rise
_RADIUS_FIT = 10
_RADIUS_BETA = 0.01
_RADIUS_SIGMAS = 3.0
# terms whose unit phases differ by at most this share one phase
_PHASE_TOL = 1e-9
# a log-growth per degree (or a term ratio's gap to one) this small counts as
# flat: the magnitudes do not decay
_FLAT = 1e-9
_UNITARY_TOL = 1e-10
_DEMO_POWERS = 31
# sentinel for epsilon-tableau entries whose difference vanishes or is not finite
_HUGE = 1e300
_SENTINEL = complex(_HUGE)
# entries at or above this modulus are never candidates
_USABLE = _HUGE / 10


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
    # a converged Abel report's residual from its deciding route, else NaN
    extrapolation_residual: float = math.nan


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
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {max_degree}")
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


def wynn_epsilon(sums, prefixes=None):
    """Best even-column entry of the epsilon tableau and its residual.

    Divisions by vanishing differences are masked with a huge sentinel and
    such entries never become candidates; the candidate with the smallest
    last-step difference wins, which keeps exactly-summable cases (rational
    generating functions) at residual zero instead of dividing 0 by 0.

    `sums` is one sequence of partial sums, and the result is (value,
    residual) for the whole of it.  With `prefixes`, a list of prefix
    lengths, the result is a list of one (value, residual) per prefix.
    Entry (k, j) of the tableau reads only s_j ... s_{j+k}, so every prefix
    is read off the one tableau the longest of them builds.
    """
    s = np.asarray(sums, dtype=complex)
    if s.ndim != 1:
        raise ValueError("wynn_epsilon takes one sequence of partial sums")
    if prefixes is None:
        return _tableau_row(s.tolist(), [len(s)])[0]
    if any(not isinstance(p, (int, np.integer)) or not 0 <= p <= len(s) for p in prefixes):
        raise ValueError("prefix lengths must be integers within the sums")
    prefixes = [int(p) for p in prefixes]
    return _tableau_row(s[:max(prefixes, default=0)].tolist(), prefixes)


def _modulus(z: complex) -> float:
    """|z| as np.hypot gives it: infinite where CPython's abs overflows."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _tableau_row(row: list[complex], prefixes: list[int]) -> list[tuple[complex, float]]:
    """(value, residual) of each prefix of one sequence, off one scalar tableau.

    Column k is e_k(j) = e_(k-2)(j+1) + 1 / (e_(k-1)(j+1) - e_(k-1)(j)),
    from e_(-1) = 0 and e_0 = the partial sums + 0j, in CPython's complex
    arithmetic; a zero or non-finite difference gives the sentinel.  The
    candidates of a prefix are its last partial sum and the last entry of
    each even column it reaches, each measured by its gap to its usable left
    neighbour.  Each prefix keeps its best candidate, its residual and the
    last candidate it accepted while the even columns go by.  A prefix whose
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


@dataclass(frozen=True)
class _SeriesOutcome:
    value: complex | None
    verdict: str
    tail: float
    used_degree: int
    rule: str


def _intercept(x: np.ndarray, y: np.ndarray) -> float:
    """Intercept of the least-squares line y = a + b x, in closed form (no LAPACK routine runs).

    NaN when a y is not finite, as LAPACK's least squares gives it.
    """
    if not np.isfinite(y).all():
        return math.nan
    mean = x.mean()
    xc = x - mean
    return float(y.mean() - (xc @ y) / (xc @ xc) * mean)


def _shrinking(mags: np.ndarray) -> bool:
    """Is the largest |term| of the last quarter below _SHRINK x that of the quarter before?"""
    q = len(mags) // 4
    return bool(mags[-q:].max() < _SHRINK * mags[-2 * q:-q].max())


def _epsilon_check(w: np.ndarray) -> tuple[complex, float]:
    """(value, residual) of the epsilon limit of the partial sums of the terms w.

    The partial sums run over all the terms, and epsilon reads the last
    _EPS_TERMS of them.  The residual is the larger of the tableau residual
    and the gap to the value of the shortened (3/4) window; both windows are
    read off one epsilon call.
    """
    sums = np.cumsum(w)[-_EPS_TERMS:]
    width = len(sums)
    (value, resid), (part, _) = wynn_epsilon(sums, [width, max(8, 3 * width // 4)])
    return value, max(resid, abs(value - part))


def _series(terms: np.ndarray, finite: bool, cfg: RegularizationConfig, t: float | None = None) -> _SeriesOutcome:
    """Outcome of the terms weighted by t^{2d}, or of the plain terms if t is None."""
    # the plain row stays unweighted: a complex product with 1.0 turns an
    # infinite imaginary part into a NaN real part and can flip a signed zero
    row = terms if t is None else terms * float(t) ** (2.0 * np.arange(len(terms)))
    nz = row.nonzero()[0]
    if len(nz) == 0:
        # nothing to sum: the window is exactly zero
        return _SeriesOutcome(0j, "converged", 0.0, max(len(row) - 1, 0), "finite")
    w = row[nz]
    used = int(nz[-1])
    if finite:
        return _SeriesOutcome(complex(np.sum(w)), "converged", 0.0, used, "finite")

    tol = cfg.tolerance
    mags = np.abs(w)

    # divergent: persistent non-vanishing terms past the degree threshold
    tail = (nz > _DIVERGENCE_DEGREE).nonzero()[0]
    if len(tail) >= _DIVERGENCE_WINDOW:
        pos = tail[-_DIVERGENCE_WINDOW:]
        window = mags[pos]
        ratios = window[1:] / window[:-1]
        if (window >= tol).all() and (ratios >= 1.0 - _FLAT).all():
            # ratios of |c_n| with c_n hypergeometric follow rho*(1 + b/n), so
            # the intercept of a fit against 1/n extrapolates the ratio limit;
            # locally growing but eventually geometric tails (rho < 1) must
            # not be called divergent on a window cut before the turnaround
            if _intercept(1.0 / pos[1:], ratios) >= 1.0 - _FLAT:
                return _SeriesOutcome(None, "divergent", math.inf, used, "divergence_fit")

    # geometric tail; the magnitudes of nonzero terms are positive, so a
    # ratio is NaN only next to a NaN magnitude, which no rho < 1 passes
    if len(nz) > _RATIO_WINDOW:
        last = mags[-(_RATIO_WINDOW + 1):]
        rho = (last[1:] / last[:-1]).max()
        if rho < 1.0 and (last[1:] <= tol * (1.0 - rho)).all():
            r = float(rho)
            tail_sum = float(last[-1]) * r / (1.0 - r)
            return _SeriesOutcome(complex(np.sum(w)), "converged", tail_sum, used, "geometric_tail")

    if len(nz) < 8:
        return _SeriesOutcome(None, "undecided", math.inf, used, "window_too_short")
    # epsilon on the partial sums of terms that do not shrink returns the
    # analytic continuation, not a sum: such a row never reaches it
    if not _shrinking(mags[-_EPS_TERMS:]):
        return _SeriesOutcome(None, "undecided", math.inf, used, "terms_not_shrinking")
    value, resid = _epsilon_check(w)
    if math.isfinite(resid) and resid <= tol:
        return _SeriesOutcome(value, "converged", resid, used, "epsilon")
    return _SeriesOutcome(None, "undecided", math.inf, used, "epsilon_residual")


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
            self._plain = _series(self.terms, self.finite, self.cfg)
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
    _check_t(t)
    cfg = cfg or RegularizationConfig()
    data = _pair_data(phi, psi, cfg)
    return _report(_series(data.terms, data.finite, cfg, t), "scaled_t")


def _check_t(t: float) -> None:
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie strictly between 0 and 1")


def terms_report(terms: np.ndarray, finite: bool, cfg: RegularizationConfig, method: str = "series",
                 t: float | None = None) -> PairingReport:
    """The report of pairing_1 (t None), pairing_t or, for method "abel", abel_pairing on a pair with these terms.

    terms and finite are what degree_terms gives for the pair up to
    cfg.max_degree, or the same terms with trailing zeros dropped; here the
    caller made them by another route, such as gaussian_terms.
    """
    if method == "abel":
        return _abel_report(terms, _series(terms, finite, cfg), cfg)
    if t is None:
        return _report(_series(terms, finite, cfg), "series_1")
    _check_t(t)
    return _report(_series(terms, finite, cfg, t), "scaled_t")


def _log_growth(terms: np.ndarray, fit: np.ndarray) -> tuple[float, float]:
    """beta of a least-squares fit log|a_d| = alpha + beta d + gamma log(d+1) over `fit`, and its standard error.

    By Cauchy-Hadamard the radius of convergence of sum a_d x^d is exp(-beta),
    up to the fit's slack.  The fit solves the normal equations of the
    centred columns d and log(d+1) in closed form, so no LAPACK routine runs;
    `fit` is the second half of a window, so d spans a factor of about two
    and the two columns stay far from collinear.  The standard error is the
    ordinary least-squares one, over len(fit) - 3 degrees of freedom, and
    NaN without one.  Both are NaN for a fit of fewer than 3 terms or when a
    magnitude there is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.log(np.abs(terms[fit]))
    if len(fit) < 3 or not np.isfinite(y).all():
        return math.nan, math.nan
    d = fit.astype(float)
    lg = np.log1p(d)
    d -= d.mean()
    lg -= lg.mean()
    y -= y.mean()
    sdd, sll, sdl, sdy, sly = d @ d, lg @ lg, d @ lg, d @ y, lg @ y
    det = sdd * sll - sdl * sdl
    beta = (sll * sdy - sdl * sly) / det
    resid = y - beta * d - (sdd * sly - sdl * sdy) / det * lg
    dof = len(fit) - 3
    se = math.sqrt(resid @ resid / dof * sll / det) if dof else math.nan
    return float(beta), se


def abel_pairing(phi: GradedElement, psi: GradedElement, cfg: RegularizationConfig | None = None) -> PairingReport:
    """Abel limit lim_{t -> 1} sum_d <phi_d | psi_d> t^{2d}, from the plain terms.

    In order: a convergent plain series sums to its Abel limit (Abel's
    theorem); the epsilon continuation of the plain partial sums, when the
    terms' radius of convergence is at least one; `divergent` when the
    radius is below one, since then the scaled series has no sum for t near
    1 and there is no limit to take; `divergent` at a pole at s = 1, when the
    terms keep one phase and do not decay.  The radius fit, the phase and the
    decay are read over all the nonzero terms (the fit and the decay over
    their second half); epsilon sees the partial sums of all of them, and
    is tried only when the fit allows a radius of at least one.  When every
    route declines the report is `undecided`, for the plain series' reason.

    The radius rule judges the growth inside the window: no rule on a finite
    window can tell growth that turns after the horizon from growth that
    never turns.  exp(sqrt d) 0.999^d converges, yet its fit reads
    beta = 0.0196 at horizon 200, and the rule calls it `divergent` there.
    """
    cfg = cfg or RegularizationConfig()
    data = _pair_data(phi, psi, cfg)
    return _abel_report(data.terms, data.plain(), cfg)


def _abel_report(terms: np.ndarray, plain: _SeriesOutcome, cfg: RegularizationConfig) -> PairingReport:
    """The Abel report on a pair's terms, given their plain outcome."""
    out = plain
    if plain.verdict == "converged":
        out = replace(plain, rule="plain_sum")
    # only these two leave a window whose epsilon limit was never tried
    elif plain.rule in ("divergence_fit", "terms_not_shrinking"):
        out = _abel_routes(terms, plain.used_degree, cfg)
    # a converged route's tail is its own residual
    return _report(out, "abel", extrapolation_residual=out.tail if out.verdict == "converged" else math.nan)


def _abel_routes(terms: np.ndarray, used: int, cfg: RegularizationConfig) -> _SeriesOutcome:
    """The continuation, radius and pole routes of `abel_pairing`, on terms that do not shrink."""
    nz = terms.nonzero()[0]
    fit = nz[len(nz) // 2:]
    beta, se = _log_growth(terms, fit)
    if beta <= _MAX_BETA:
        value, resid = _epsilon_check(terms[nz])
        if math.isfinite(resid) and resid <= cfg.tolerance:
            return _SeriesOutcome(value, "converged", resid, used, "continuation")
    mags = np.abs(terms[fit])
    # a radius below one needs terms that rise across the fit, not only a
    # rising fitted slope: a deep dip at the start of a short window, where
    # terms of several phases cancel, also tilts the fit
    half = len(mags) // 2
    if (len(fit) >= _RADIUS_FIT and beta - _RADIUS_SIGMAS * se > _RADIUS_BETA
            and mags[half:].max() > mags[:half].max()):
        return _SeriesOutcome(None, "divergent", math.inf, used, "radius_below_one")
    # a pole needs terms that do not decay: a flat or rising fit, and no
    # magnitude below the one before it
    with np.errstate(invalid="ignore"):  # a term that is not finite has a NaN phase, failing the test
        phase = terms[nz] / np.abs(terms[nz])
    if (np.abs(phase - phase[0]).max() <= _PHASE_TOL and beta >= -_FLAT
            and (mags[1:] >= (1.0 - _FLAT) * mags[:-1]).all()):
        return _SeriesOutcome(None, "divergent", math.inf, used, "pole")
    # terms the plain rules call divergent do not shrink either
    return _SeriesOutcome(None, "undecided", math.inf, used, "terms_not_shrinking")


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
    if truncation is not None and truncation < 0:
        raise ValueError(f"truncation must be >= 0, got {truncation}")
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
    if not len(vals):
        raise ValueError("sequence_element needs at least one value, the degree-zero one")
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
    terms grow and the plain series pairing diverges on the boundary.  The
    c_n are the self-pairing terms that gaussian_terms streams, two degrees
    at a time, up to degree 2 * _DEMO_POWERS.
    """
    from .antilinear import conjugation
    from .gaussian import GaussianSeed, gaussian_terms

    seed = GaussianSeed.from_map(conjugation(m))
    c = gaussian_terms(seed, seed, 2 * _DEMO_POWERS)[0][::2].real.tolist()
    return [c[n + 1] / c[n] for n in range(_DEMO_POWERS)]
