"""Canonical series algebra: construction, evaluation, derivative chain."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgspectra import (
    NonpositiveLeadingAction,
    TermActionExceedsLeading,
    canonicalize,
    derivative_series,
    evaluate_array,
    regularization_order,
)
from qgspectra.fuzz import random_series, standard_window
from qgspectra.series import EVAL_BLOCK, TrigTerm, evaluate, regularity_sum, taylor_array

TWO_PI = 2.0 * math.pi


def circular_close(a, b, tol=1e-12):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d) <= tol


class TestCanonicalize:
    def test_negative_amplitude_folds_into_phase(self):
        s = canonicalize(1.0, 0.0, [(0.5, -0.5, 0.0)])
        assert len(s.terms) == 1
        t = s.terms[0]
        assert t.action == 0.5
        assert t.amplitude == 0.5
        assert circular_close(t.phase, math.pi)

    def test_duplicate_terms_merge_amplitudes(self):
        s = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0), (0.5, 0.2, 0.0)])
        assert len(s.terms) == 1
        assert s.terms[0].amplitude == pytest.approx(0.5, abs=0)

    def test_action_at_or_above_leading_rejected(self):
        with pytest.raises(TermActionExceedsLeading):
            canonicalize(1.0, 0.0, [(1.2, 0.1, 0.0)])
        with pytest.raises(TermActionExceedsLeading):
            canonicalize(1.0, 0.0, [(1.0, 0.1, 0.0)])

    def test_nonpositive_leading_action_rejected(self):
        with pytest.raises(NonpositiveLeadingAction):
            canonicalize(0.0, 0.0)
        with pytest.raises(NonpositiveLeadingAction):
            canonicalize(-2.0, 0.0)

    def test_negative_action_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(1.0, 0.0, [(-0.1, 0.5, 0.0)])

    def test_zero_amplitude_dropped(self):
        s = canonicalize(1.0, 0.0, [(0.5, 1e-15, 0.0), (0.3, 0.0, 1.0)])
        assert s.terms == ()

    def test_phases_reduced_mod_two_pi(self):
        s = canonicalize(2.0, -0.5, [(0.5, 0.2, 7.0)])
        assert 0.0 <= s.leading_phase < TWO_PI
        assert circular_close(s.leading_phase, -0.5)
        assert 0.0 <= s.terms[0].phase < TWO_PI
        assert circular_close(s.terms[0].phase, 7.0)

    def test_terms_sorted_by_action(self):
        s = canonicalize(1.0, 0.0, [(0.8, 0.1, 0.0), (0.2, 0.1, 0.0), (0.5, 0.1, 0.0)])
        actions = [t.action for t in s.terms]
        assert actions == sorted(actions)

    def test_wraparound_phases_merge(self):
        s = canonicalize(1.0, 0.0, [(0.5, 0.3, 1e-13), (0.5, 0.2, TWO_PI - 1e-13)])
        assert len(s.terms) == 1
        assert s.terms[0].amplitude == pytest.approx(0.5, abs=1e-15)

    def test_opposite_phases_do_not_merge(self):
        # Same action, phases pi apart: cancellation is left to the caller.
        s = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0), (0.5, -0.3, 0.0)])
        assert len(s.terms) == 2

    def test_accepts_trig_terms(self):
        s = canonicalize(1.0, 0.0, [TrigTerm(0.5, 0.4, 1.0)])
        assert s.terms == (TrigTerm(0.5, 0.4, 1.0),)


class TestEvaluate:
    def test_pure_cosine_values(self):
        s = canonicalize(1.0, 0.0)
        assert evaluate(s, 0.0) == pytest.approx(1.0, abs=0)
        assert evaluate(s, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_term_subtracts(self):
        s = canonicalize(1.0, 0.0, [(0.5, 0.5, 0.0)])
        assert evaluate(s, 0.0) == pytest.approx(0.5, abs=1e-16)

    def test_array_matches_scalar(self):
        s = canonicalize(1.7, 0.3, [(0.9, 0.6, 1.1), (0.2, 0.8, 4.0)])
        ks = np.linspace(0.0, 30.0, 101)
        vals = evaluate_array(s, ks)
        for k, v in zip(ks, vals):
            assert v == pytest.approx(evaluate(s, float(k)), abs=5e-15)

    def test_many_term_matrix_path(self):
        terms = [(0.01 * j, 0.01, 0.1 * j) for j in range(1, 60)]
        s = canonicalize(1.0, 0.0, terms)
        ks = np.linspace(0.0, 10.0, 17)
        vals = evaluate_array(s, ks)
        for k, v in zip(ks, vals):
            assert v == pytest.approx(evaluate(s, float(k)), abs=1e-12)

    @pytest.mark.parametrize("n_terms, n_points", [(100, 100_000), (EVAL_BLOCK + 1, 64)])
    def test_memory_is_bounded(self, n_terms, n_points):
        terms = [(0.99 * j / n_terms, 1.0 / n_terms, 0.1 * j) for j in range(n_terms)]
        s = canonicalize(1.0, 0.3, terms)
        ks = np.linspace(0.0, 1000.0, n_points)
        tracemalloc.start()
        try:
            vals = evaluate_array(s, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        for i in (0, 1, n_points // 2, n_points - 1):
            assert vals[i] == pytest.approx(evaluate(s, float(ks[i])), abs=1e-12)


class TestTaylorModel:
    ORDER = 16

    def draws(self, seed, count=20):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            series = random_series(rng, max_terms=60)
            window = standard_window(series, 100)
            yield series, rng.uniform(*window, size=int(rng.integers(1, 3 * EVAL_BLOCK // 60)))

    def test_row_zero_is_evaluate_array(self):
        # Same product over the same blocks: bit for bit, whatever the order.
        for series, ks in self.draws(41):
            for order in (0, 1, self.ORDER):
                assert np.array_equal(taylor_array(series, ks, order)[0], evaluate_array(series, ks))

    def test_rows_are_scaled_derivative_levels(self):
        # n! * c_n is level n of the derivative chain at the same point.
        for series, ks in self.draws(43):
            rows = taylor_array(series, ks, self.ORDER)
            level = series
            for n in range(self.ORDER + 1):
                assert np.max(np.abs(math.factorial(n) * rows[n] - evaluate_array(level, ks))) <= 1e-13
                level = derivative_series(level)

    def test_polynomial_within_remainder_bound(self):
        # g(x + u/s0) = sum c_n u**n up to (1 + sum a) |u|**(N+1) / (N+1)!.
        n = self.ORDER
        for series, ks in self.draws(47, count=5):
            rows = taylor_array(series, ks[:200], n)
            for u in (-1.6, -0.4, 0.05, 0.9, 1.6):
                model = np.polynomial.polynomial.polyval(u, rows)
                exact = evaluate_array(series, ks[:200] + u / series.leading_action)
                bound = (1.0 + regularity_sum(series)) * abs(u) ** (n + 1) / math.factorial(n + 1)
                assert np.max(np.abs(model - exact)) <= bound + 1e-13

    def test_memory_is_bounded(self):
        terms = [(0.99 * j / 100, 0.01, 0.1 * j) for j in range(100)]
        s = canonicalize(1.0, 0.3, terms)
        ks = np.linspace(0.0, 1000.0, 20_000)
        tracemalloc.start()
        try:
            rows = taylor_array(s, ks, self.ORDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The result itself, plus a few EVAL_BLOCK-sized blocks.
        assert peak < rows.nbytes + 8 * 8 * EVAL_BLOCK


class TestDerivative:
    def test_single_term_scaling(self):
        s = canonicalize(1.0, 0.0, [(0.5, 0.8, 0.0)])
        d = derivative_series(s)
        assert circular_close(d.leading_phase, math.pi / 2)
        assert d.terms[0].amplitude == pytest.approx(0.4, abs=0)
        assert circular_close(d.terms[0].phase, math.pi / 2)

    def test_twice(self):
        s = canonicalize(1.0, 0.0, [(0.5, 0.8, 0.0)])
        d2 = derivative_series(derivative_series(s))
        assert circular_close(d2.leading_phase, math.pi)
        assert d2.terms[0].amplitude == pytest.approx(0.2, abs=1e-17)
        assert circular_close(d2.terms[0].phase, math.pi)

    def test_empty_terms(self):
        s = canonicalize(2.0, 0.3)
        d = derivative_series(s)
        assert d.leading_action == 2.0
        assert circular_close(d.leading_phase, 0.3 + math.pi / 2)
        assert d.terms == ()

    def test_constant_term_vanishes(self):
        s = canonicalize(1.0, 0.0, [(0.0, 5.0, 1.0)])
        d = derivative_series(s)
        assert d.terms == ()


class TestRegularity:
    def test_sum_examples(self):
        assert regularity_sum(canonicalize(1.0, 0.0, [(0.5, 0.8, 0.0)])) == 0.8
        assert regularity_sum(canonicalize(1.0, 0.0, [(0.5, 1.5, 0.0)])) == 1.5
        assert regularity_sum(canonicalize(1.0, 0.0)) == 0.0

    def test_order_already_regular(self):
        s = canonicalize(1.0, 0.0, [(0.5, 0.8, 0.0)])
        assert regularization_order(s) == 0

    def test_order_one_step(self):
        s = canonicalize(1.0, 0.0, [(0.5, 1.5, 0.0)])
        assert regularization_order(s) == 1

    def test_order_nine_steps(self):
        # 2.4 * 0.9^8 is above 1, 2.4 * 0.9^9 is below.
        s = canonicalize(1.0, 0.0, [(0.9, 2.4, 0.0)])
        assert regularization_order(s) == 9

    def test_bad_margin(self):
        s = canonicalize(1.0, 0.0)
        with pytest.raises(ValueError):
            regularization_order(s, margin=0.0)
        with pytest.raises(ValueError):
            regularization_order(s, margin=1.0)


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def raw_series(draw, max_terms=5):
    s0 = draw(st.floats(0.3, 4.0))
    n = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n):
        action = draw(st.floats(0.0, 0.96)) * s0
        amplitude = draw(st.floats(-2.0, 2.0))
        phase = draw(st.floats(-10.0, 10.0))
        terms.append((action, amplitude, phase))
    phi0 = draw(st.floats(-10.0, 10.0))
    return s0, phi0, terms


@given(raw_series())
def test_canonicalize_idempotent(raw):
    s0, phi0, terms = raw
    once = canonicalize(s0, phi0, terms)
    twice = canonicalize(once.leading_action, once.leading_phase, once.terms)
    assert once == twice


@given(raw_series(), st.floats(0.0, 50.0))
def test_boundedness(raw, k):
    series = canonicalize(*raw)
    assert abs(evaluate(series, k)) <= 1.0 + regularity_sum(series) + 1e-12


@given(raw_series())
def test_amplitude_decay_strict(raw):
    series = canonicalize(*raw)
    if not series.terms:
        return
    assert regularity_sum(derivative_series(series)) < regularity_sum(series)


@settings(max_examples=60)
@given(raw_series(), st.floats(0.2, 20.0))
def test_derivative_matches_finite_difference(raw, k):
    series = canonicalize(*raw)
    d = derivative_series(series)
    h = 1e-6
    fd = (evaluate(series, k + h) - evaluate(series, k - h)) / (2 * h * series.leading_action)
    exact = evaluate(d, k)
    # Plain relative error is ill-posed where the derivative vanishes, so
    # the comparison floors the denominator at 1.
    assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))


@given(raw_series())
def test_canonical_invariants(raw):
    series = canonicalize(*raw)
    assert series.leading_action > 0
    assert 0.0 <= series.leading_phase < TWO_PI
    for t in series.terms:
        assert t.amplitude > 0
        assert 0.0 <= t.phase < TWO_PI
        assert 0.0 <= t.action < series.leading_action
    actions = [t.action for t in series.terms]
    assert actions == sorted(actions)
