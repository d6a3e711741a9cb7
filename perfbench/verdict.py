"""verdict: the summation rules alone, on 1-D sequences with known answers.

Every operation pairs the all-ones sequence with a term sequence whose
verdict and value the oracle knows, at one horizon, through pairing_1,
pairing_t and abel_pairing.  There is no algebra work, so this isolates
the verdict rules, Wynn's epsilon algorithm and the Abel grid.

The input set is fixed: each of the ten families at ten horizons in each of
four bands.  A run visits it in an order its seed picks, again from the
start until its window closes, and judges any input the window missed once
more after it, so `attempted` and `failed` are the same in every run.

Short horizons (20-62) are included on purpose: there the engine has no room
for its divergence rule, and a false `converged` is counted as a failure.
"""

from __future__ import annotations

import functools
import importlib

import numpy as np

import oracle
from harness import Op, even_draw, visit_order
from outcome import judge

# Gaussian-pairing spectra place the term of s^n at degree 2n; the plain
# sequences place term n at degree n.
FAMILIES = ("interior", "near", "boundary1", "boundary2", "boundary4", "growing",
            "alt_linear", "alt", "ones", "halves")
HORIZONS = ((20, 41), (42, 62), (63, 120), (121, 200))
# inputs per family and horizon band, horizons spread evenly over the band
POINTS = 10
# The input set is the same in every run, so every run judges the same
# inputs and counts the same failures; the run's seed orders it.
GRID_SEED = 20171010
RADIUS = {"interior": (0.3, 0.8), "near": (0.95, 0.995), "growing": (1.05, 1.3)}
T_RANGE = (0.5, 0.95)
# keep the scaled series this far from its radius of convergence
T_MARGIN = 0.05


def spectrum_for(family: str, rng: np.random.Generator, point: int):
    """(eigenvalues, stride) of one family; stride is the degree step."""
    if family in oracle.SEQUENCES:
        return oracle.SEQUENCES[family][0], 1
    if family.startswith("boundary"):
        return (-1.0,) * int(family[len("boundary"):]), 2
    radius = even_draw(point, 0.5, *RADIUS[family])
    return tuple(oracle.random_spectrum(rng, 1 + point % 4, radius)), 2


def draw_t(rng: np.random.Generator, radius: float, stride: int) -> float:
    while True:
        t = float(rng.uniform(*T_RANGE))
        if abs(radius * t ** (2 * stride) - 1.0) >= T_MARGIN:
            return t


def terms_at_degrees(family: str, eigs, stride: int, horizon: int) -> np.ndarray:
    n_max = horizon // stride
    if family in oracle.SEQUENCES:
        coeffs = oracle.sequence_terms(family, n_max)
    else:
        coeffs = oracle.spectrum_terms(eigs, n_max)
    out = np.zeros(horizon + 1, dtype=complex)
    out[::stride][: n_max + 1] = coeffs
    return out


class Verdict:
    name = "verdict"
    in_process = True

    def setup(self) -> None:
        self.pairing = importlib.import_module("fockpair.pairing")

    def ops(self, seed: int) -> list[Op]:
        """The whole input set, in the order the seed gives."""
        rng = np.random.default_rng(GRID_SEED)
        p = self.pairing
        cells = [(family, band) for band in HORIZONS for family in FAMILIES]
        table = {}
        for c, (family, (lo, hi)) in enumerate(cells):
            for j in range(POINTS):
                horizon = lo + j * (hi - lo) // (POINTS - 1)
                eigs, stride = spectrum_for(family, rng, j)
                radius = max(abs(complex(x)) for x in eigs)
                t = draw_t(rng, radius, stride)
                phi = p.sequence_element(np.ones(horizon + 1))
                psi = p.sequence_element(terms_at_degrees(family, eigs, stride, horizon))
                cfg = p.RegularizationConfig(max_degree=horizon)
                table[c, j] = Op(f"{family}@{lo}-{hi}", functools.partial(self._call, phi, psi, t, cfg),
                                 functools.partial(self._check, eigs, stride, t, cfg.tolerance))
        return [table[key] for key in visit_order(len(cells), POINTS, seed)]

    def _call(self, phi, psi, t, cfg):
        p = self.pairing
        return (p.pairing_1(phi, psi, cfg), p.pairing_t(phi, psi, t, cfg), p.abel_pairing(phi, psi, cfg))

    @staticmethod
    def _check(eigs, stride, t, tol, out):
        plain, scaled, abel = out
        return [
            judge(plain.verdict, plain.value, oracle.series_truth(eigs), tol),
            judge(scaled.verdict, scaled.value, oracle.series_truth(eigs, t ** (2 * stride)), tol),
            judge(abel.verdict, abel.value, oracle.abel_truth(eigs), tol),
        ]
