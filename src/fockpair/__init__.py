"""Numerics for graded symmetric-algebra pairings over a finite-dimensional
complex Hilbert space: exact polynomial algebra, antilinear symmetric maps and
their Takagi diagonalization, Gaussian elements with closed-form overlaps, and
degreewise series pairings with scaled regularization and Abel extrapolation.

The package namespace is lazy (PEP 562): `import fockpair` loads no
submodule, and `fockpair.<name>` imports the name's home module on first use.
A name is looked up in its home module on every access and never stored
here, so the package always hands out what the home module holds.  A
submodule in the table, such as `fockpair.algebra`, resolves the same way.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the module it lives in
_EXPORTS = {
    "algebra": (
        "GradedElement",
        "add",
        "antidual_product",
        "basis_size",
        "coproduct_oracle",
        "embed_product",
        "enumerate_basis",
        "evaluate",
        "from_vector",
        "inner_product",
        "normalization",
        "permanent_inner_oracle",
        "scale",
        "symmetric_power_matrix",
        "symmetric_product",
        "vacuum",
    ),
    "antilinear": (
        "AntilinearSymmetricMap",
        "TakagiFactorization",
        "compose",
        "conjugation",
        "map_from_quadratic",
        "operator_norm",
        "quadratic_from_map",
        "random_symmetric",
        "siegel_membership",
        "takagi",
    ),
    "detsqrt": ("det_sqrt", "in_gv", "segment_branch_check"),
    "errors": (
        "DimensionMismatch",
        "DomainError",
        "FockpairError",
        "GuardExceeded",
        "InsufficientHorizon",
    ),
    "gaussian": ("GaussianSeed", "gaussian_series", "gaussian_terms", "norm_sq_closed", "pair_closed"),
    "config": ("RegularizationConfig",),
    "pairing": (
        "HoelderCheck",
        "HoelderNorms",
        "PairingReport",
        "abel_pairing",
        "degree_terms",
        "divergence_demo",
        "graded_unitary_apply",
        "hoelder_norm",
        "hoelder_pairing_check",
        "number_op_pow",
        "pair_swap",
        "pairing_1",
        "pairing_t",
        "sequence_element",
        "sequence_noninvariance_demo",
        "wynn_epsilon",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
