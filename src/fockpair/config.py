"""The regularization settings every series pairing reads.

It lives apart from `pairing` so that the CLI's closed methods, which
check `--tol` and `--max-degree` but sum nothing, need not load the
verdict engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegularizationConfig:
    """Tolerance and horizon of every series evaluation.

    The verdict rules of all three pairings, and every route of the Abel
    pairing, read the same two values.
    """

    tolerance: float = 1e-8
    max_degree: int = 200

    def __post_init__(self):
        # an infinite tolerance certifies any epsilon value, a NaN one none, True passes as 1
        if isinstance(self.tolerance, (bool, np.bool_)) or not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if isinstance(self.max_degree, bool) or not isinstance(self.max_degree, (int, np.integer)):
            raise ValueError(f"max_degree must be an integer, got {self.max_degree!r}")
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {self.max_degree}")
