"""sweep-warm: a library user sweeping Gaussian pairs of one shape per m.

Setup fills the basis and scatter tables with one generic seed (all entries
nonzero) per (m, cap), so every operation runs the scatter-apply path and the
verdict engine on tables that all operations share.  A table-build
optimisation should therefore show no change here.

The input set is fixed: 50 pairs for each m and norm band.  A run visits it
in an order its seed picks, again from the start until its window closes.
"""

from __future__ import annotations

import functools
import importlib

import numpy as np

import oracle
from harness import Op, even_draw, visit_order
from outcome import check_value, judge

CAPS = {1: 200, 2: 160, 3: 80}
# operator norms of X and Y; each cycle of operations visits every band
NORM_BANDS = ((0.30, 0.47), (0.47, 0.64), (0.64, 0.81), (0.81, 0.98))
# input pairs per m and band
POINTS = 50
# The input set is the same in every run, so every run judges the same
# inputs and counts the same failures; the run's seed orders it.
GRID_SEED = 17100375
T_RANGE = (0.5, 0.95)
CLOSED_TOL = 1e-10
_TABLE_SEED = 20171010


class SweepWarm:
    name = "sweep-warm"
    in_process = True

    def setup(self) -> None:
        self.gaussian = importlib.import_module("fockpair.gaussian")
        self.pairing = importlib.import_module("fockpair.pairing")
        self.tol = self.pairing.RegularizationConfig().tolerance
        rng = np.random.default_rng(_TABLE_SEED)
        for m, cap in CAPS.items():
            # a random complex symmetric matrix: every entry is nonzero
            generic = oracle.random_symmetric(rng, m, 0.5)
            self.gaussian.gaussian_series(self.gaussian.GaussianSeed.from_matrix(generic), cap)

    def ops(self, seed: int) -> list[Op]:
        """The whole input set, in the order the seed gives."""
        rng = np.random.default_rng(GRID_SEED)
        cells = [(m, band) for band in range(len(NORM_BANDS)) for m in CAPS]
        table = {}
        for c, (m, band) in enumerate(cells):
            for j in range(POINTS):
                norm_x = even_draw(j, 0.0, *NORM_BANDS[band])
                norm_y = even_draw(j, 0.5, *NORM_BANDS[(band + 2) % len(NORM_BANDS)])
                a = oracle.random_symmetric(rng, m, norm_x)
                b = oracle.random_symmetric(rng, m, norm_y)
                t = float(rng.uniform(*T_RANGE))
                table[c, j] = Op(f"m{m}", functools.partial(self._call, a, b, CAPS[m], t),
                                 functools.partial(self._check, a, b, t))
        return [table[key] for key in visit_order(len(cells), POINTS, seed)]

    def _call(self, a, b, cap, t):
        # module attributes are looked up per call, so the traced run's
        # wrappers are the ones called
        g, p = self.gaussian, self.pairing
        sx, sy = g.GaussianSeed.from_matrix(a), g.GaussianSeed.from_matrix(b)
        ex, ey = g.gaussian_series(sx, cap), g.gaussian_series(sy, cap)
        return {
            "norm": p.pairing_1(ex, ex),
            "cross": p.pairing_1(ex, ey),
            "scaled": p.pairing_t(ex, ey, t),
            "abel": p.abel_pairing(ex, ey),
            "pair_closed": g.pair_closed(sx, sy),
            "norm_sq_closed": g.norm_sq_closed(sx),
        }

    def _check(self, a, b, t, out):
        cross = oracle.pairing_spectrum(a, b)
        self_eigs = oracle.pairing_spectrum(a, a)
        truth_norm = oracle.series_truth(self_eigs)
        truth_cross = oracle.series_truth(cross)
        # pairing_t weights degree d by t^(2d); Gaussian terms sit at d = 2n
        truth_scaled = oracle.series_truth(cross, t**4)
        verdicts = [
            judge(out["norm"].verdict, out["norm"].value, truth_norm, self.tol),
            judge(out["cross"].verdict, out["cross"].value, truth_cross, self.tol),
            judge(out["scaled"].verdict, out["scaled"].value, truth_scaled, self.tol),
            judge(out["abel"].verdict, out["abel"].value, oracle.abel_truth(cross), self.tol),
        ]
        closed = [
            check_value(out["pair_closed"], truth_cross.value, CLOSED_TOL, "pair_closed"),
            check_value(out["norm_sq_closed"], truth_norm.value, CLOSED_TOL, "norm_sq_closed"),
        ]
        # every converged series value against the library's own closed form
        for key, ref in (("norm", out["norm_sq_closed"]), ("cross", out["pair_closed"]),
                         ("abel", out["pair_closed"])):
            if out[key].converged:
                closed.append(check_value(out[key].value, ref, self.tol, f"{key} series vs closed form"))
        return verdicts + closed
