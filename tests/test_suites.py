"""The check table as `verify` runs it: every suite passes, names and tolerances pinned in order."""

import math

import numpy as np
import pytest

from fockpair import algebra, cli, suites
from fockpair.algebra import basis_size

CHECKS = {
    "algebra": (
        ("inner_product_vs_permanent", 1e-10),
        ("embed_is_multiplicative", 1e-08),
        ("product_routes_agree", 1e-10),
        ("coproduct_evaluation_identity", 1e-10),
        ("power_inner_product_formula", 1e-10),
        ("product_commutative_associative", 1e-08),
    ),
    "gaussian": (
        ("takagi_reconstruction", 1e-10),
        ("norm_sq_series_vs_closed", 1e-08),
        ("scaled_pairing_vs_closed", 1e-08),
        ("stream_terms_vs_element_terms", 1e-12),
        ("quadratic_correspondence_roundtrip", 1e-12),
        ("det_sqrt_square_identity", 1e-10),
        ("det_sqrt_segment_continuity", 1e-08),
        ("boundary_abel_value", 0.0001),
    ),
    "hoelder": (
        ("cauchy_schwarz_self_equality", 1e-08),
        ("hoelder_slack_nonnegative", 1e-12),
        ("number_operator_rebalance", 1e-12),
    ),
    "invariance": (
        ("graded_unitary_invariance", 1e-12),
        ("functorial_lift_invariance", 1e-10),
        ("polynomial_pairing_is_evaluation", 1e-12),
        ("conjugate_symmetry", 1e-12),
        ("abel_consistent_with_series", 1.0),
    ),
    "counterexamples": (
        ("sequence_swap_limits", 1e-06),
        ("sequence_mid_t_value", 1e-10),
        ("conjugation_term_ratios", 1e-09),
        ("boundary_series_divergent", 0.0),
        ("boundary_abel_recovers_closed", 0.0001),
        ("pringsheim_self_pairing", 0.0),
    ),
}


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_run_suite_passes_with_pinned_names(name):
    checks = suites.run_suite(name, 0)
    assert tuple((c.name, c.tol) for c in checks) == CHECKS[name]
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def test_cli_offers_the_pinned_suites():
    # the parser writes the names out rather than load the suites
    assert tuple(CHECKS) == suites.SUITE_NAMES
    assert cli._SUITE_CHOICES == suites.SUITE_NAMES + ("all",)
    for name in cli._SUITE_CHOICES:
        assert cli.build_parser().parse_args(["verify", "--suite", name]).suite == name


def test_random_element_matches_degreewise_draws():
    # the one-block draw gives the instances of two draws per degree
    for seed, (m, horizon, decay) in enumerate([(1, 0, 0.6), (2, 7, 1.0), (3, 12, 0.4)]):
        got = suites.random_element(np.random.default_rng(seed), m, horizon, decay)
        rng = np.random.default_rng(seed)
        for d in range(horizon + 1):
            n = basis_size(m, d)
            assert np.array_equal(got.component(d), decay**d * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def test_worst_counts_nan_as_failure():
    draws = iter([1e-3, math.nan, 2e-3])
    assert suites.worst(lambda rng: next(draws), np.random.default_rng(0), 3) == math.inf


def test_power_inner_product_formula_scales_by_the_cauchy_schwarz_bound(monkeypatch):
    # seed 3632 draws m = 2, d = 5 with nearly orthogonal x and y: terms up to
    # d! (|x| |y|)^d ~ 3e6 sum to a right side of ~1e-2, and their rounding
    # read 1.3e-10 against max(1, |rhs|)
    assert all(c.passed for c in suites.run_suite("algebra", 3632))
    # a normalization off by one part in a million still fails the check
    exact = algebra.normalization
    monkeypatch.setattr(algebra, "normalization", lambda D: exact(D) * (1.0 + 1e-6))
    assert suites.worst(suites.power_inner_product_formula, np.random.default_rng(3632), 20) > 1e-10
