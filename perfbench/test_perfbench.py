"""Self-tests of the benchmark: oracle, classifier, tracing.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import fockpair as fp  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import sweep_warm  # noqa: E402
import tracing  # noqa: E402
from outcome import CORRECT, FAILED, UNDECIDED, check, judge  # noqa: E402


@pytest.mark.parametrize("m", [1, 2, 3])
def test_oracle_matches_series_and_closed_form(m):
    rng = np.random.default_rng(100 + m)
    cap = 24
    a = oracle.random_symmetric(rng, m, 0.8)
    b = oracle.random_symmetric(rng, m, 0.7)
    sx, sy = fp.GaussianSeed.from_matrix(a), fp.GaussianSeed.from_matrix(b)
    terms, _ = fp.degree_terms(fp.gaussian_series(sx, cap), fp.gaussian_series(sy, cap))
    eigs = oracle.pairing_spectrum(a, b)
    expected = np.zeros(cap + 1, dtype=complex)
    expected[::2] = oracle.spectrum_terms(eigs, cap // 2)
    assert np.max(np.abs(terms - expected)) < 1e-14
    assert abs(oracle.generating_value(eigs) - fp.pair_closed(sx, sy)) < 1e-12
    assert abs(oracle.generating_value(oracle.pairing_spectrum(a, a)) - fp.norm_sq_closed(sx)) < 1e-12


def test_oracle_sequences_are_their_spectra():
    for name, (eigs, _) in oracle.SEQUENCES.items():
        assert np.allclose(oracle.spectrum_terms(eigs, 80), oracle.sequence_terms(name, 80), rtol=1e-12, atol=1e-12)


def test_oracle_truths():
    boundary1 = oracle.series_truth([-1.0])
    assert boundary1.converges and abs(boundary1.value - 2 ** -0.5) < 1e-15
    assert not oracle.series_truth([-1.0, -1.0]).converges
    assert not oracle.series_truth([1.0]).converges
    assert not oracle.series_truth([1.2, 0.1]).converges
    assert oracle.series_truth([1.2], 0.5).converges
    boundary4 = oracle.abel_truth([-1.0] * 4)
    assert boundary4.converges and abs(boundary4.value - 0.25) < 1e-15
    assert not oracle.abel_truth([1.0, 1.0]).converges
    assert not oracle.abel_truth([1.1]).converges


def test_false_converged_alternating_sequence_is_failed():
    # pairing_1 on (-1)^n (n+1) at horizon 30 returns (converged, 0.25) on the
    # engine as first benchmarked; 0.25 is the Abel value, the series diverges
    truth = oracle.series_truth(oracle.SEQUENCES["alt_linear"][0])
    verdict = judge("converged", 0.25 + 0j, truth, 1e-8)
    assert verdict.status == FAILED and verdict.wrong_verdict


def test_classifier_rules():
    conv = oracle.Truth(True, 2.0)
    div = oracle.Truth(False, None)
    assert judge("undecided", None, conv, 1e-8).status == UNDECIDED
    assert judge("undecided", None, div, 1e-8).status == UNDECIDED
    assert judge("converged", 2.0 + 1e-9, conv, 1e-8).status == CORRECT
    assert judge("converged", 2.0 + 1e-6, conv, 1e-8).status == FAILED
    assert judge("divergent", None, conv, 1e-8).wrong_verdict
    assert judge("divergent", None, div, 1e-8).status == CORRECT


def test_tail_has_ten_samples_beyond():
    value, pct, n = harness.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and math.isclose(pct, 90.0)
    assert sum(x > value for x in range(100)) == 10
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_visit_order_spreads_every_prefix_over_the_cells():
    order = harness.visit_order(5, 4, seed=9)
    assert sorted(order) == [(c, j) for c in range(5) for j in range(4)]
    assert [c for c, _ in order[:5]] == list(range(5))
    assert harness.visit_order(5, 4, seed=9) == order != harness.visit_order(5, 4, seed=10)


def test_tally_judges_each_input_once_and_the_whole_set():
    def op(i):
        return harness.Op(f"k{i}", lambda: i, lambda out: [check(out != 1, "input 1 fails")])

    ops = [op(i) for i in range(3)]
    repeated = harness.closed_loop(ops, 0.05)
    assert repeated.attempted > len(ops)
    assert harness.tally(ops, [repeated]) == (3, {1: ("k1", ["input 1 fails"])})
    # a window that reaches no input still judges the whole set
    assert harness.tally(ops, [harness.Phase()]) == (3, {1: ("k1", ["input 1 fails"])})


@pytest.fixture
def small_sweep(monkeypatch):
    monkeypatch.setattr(sweep_warm, "CAPS", {1: 40, 2: 24, 3: 12})
    workload = sweep_warm.SweepWarm()
    workload.setup()
    return workload


def test_untraced_run_leaves_package_unwrapped(small_sweep):
    assert tracing.wrapped_attributes() == []
    phase = harness.closed_loop(small_sweep.ops(1), 0.3)
    assert phase.attempted > 0 and not phase.failures
    assert tracing.wrapped_attributes() == []
    restore = tracing.install(tracing.Tracer())
    try:
        assert "fockpair.gaussian.symmetric_product" in tracing.wrapped_attributes()
    finally:
        restore()
    assert tracing.wrapped_attributes() == []


def test_self_times_within_operation_wall_time(small_sweep):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        phase = harness.closed_loop(small_sweep.ops(2), 0.3, tracer)
    finally:
        restore()
    assert phase.attempted > 0
    own = tracing.self_times(tracer.spans)
    names = {s[0] for s in tracer.spans}
    assert {"gaussian.gaussian_series", "algebra.symmetric_product", "pairing.wynn_epsilon"} <= names
    for op_id in range(phase.attempted):
        root = next(i for i, s in enumerate(tracer.spans) if s[0] == tracing.OP and s[4] == op_id)
        wall = tracer.spans[root][2] - tracer.spans[root][1]
        inner = [own[i] for i, s in enumerate(tracer.spans) if s[4] == op_id and i != root]
        assert all(x >= -1e-9 for x in inner)
        assert sum(inner) <= wall + 1e-9
        assert wall <= phase.latencies[op_id] + 1e-9
