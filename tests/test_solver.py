"""Separator grids, the derivative chain and the descent."""

import math
import tracemalloc

import numpy as np
import pytest

from qgspectra import solver
from qgspectra import (
    DegenerateSpectrum,
    EmptyWindow,
    NotRegular,
    build_chain,
    canonicalize,
    descend,
    descend_with_trace,
    evaluate_array,
    scan_roots,
    secular_series,
    solve_graph,
)
from qgspectra.fuzz import random_series, standard_window
from qgspectra.series import (
    AMPLITUDE_FLOOR,
    SpectralSeries,
    derivative_series,
    evaluate,
    regularity_sum,
    taylor_array,
)
from qgspectra.solver import base_separators

from conftest import (
    SOLVABLE_GRAPHS,
    STAR_LENGTHS,
    dirichlet_star,
    make_bond_dd,
    make_bond_dk,
    make_star3,
    make_wheel5,
    model_separator_values,
)


def bisect_oracle(f, a, b, iters=200):
    """Self-contained bisection, independent of the package machinery."""
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
        if b - a < 1e-15:
            break
    return 0.5 * (a + b)


class TestBaseSeparators:
    def test_pure_cosine_grid(self):
        s = canonicalize(1.0, 0.0)
        seps = base_separators(s, 0.0, 10.0)
        assert np.allclose(seps, [0.0, math.pi, 2 * math.pi, 3 * math.pi], atol=1e-12)

    def test_scaled_shifted_grid(self):
        s = canonicalize(2.0, math.pi / 2)
        seps = base_separators(s, 0.0, 5.0)
        assert np.allclose(seps, [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4], atol=1e-12)

    def test_terms_do_not_move_separators(self):
        plain = canonicalize(2.0, math.pi / 2)
        dressed = canonicalize(2.0, math.pi / 2, [(0.9, 0.4, 1.0), (1.3, 0.35, 2.0)])
        assert np.array_equal(
            base_separators(plain, 0.0, 5.0), base_separators(dressed, 0.0, 5.0)
        )

    def test_not_regular_rejected(self):
        s = canonicalize(1.0, 0.0, [(0.6, 1.2, 0.0)])
        with pytest.raises(NotRegular):
            base_separators(s, 0.0, 10.0)

    def test_sign_is_pinned_at_separators(self):
        s = canonicalize(1.3, 0.7, [(0.9, 0.5, 2.0), (0.4, 0.3, 5.0)])
        seps = base_separators(s, 0.0, 40.0)
        for q, sep in enumerate(seps):
            lead = math.cos(s.leading_action * sep + s.leading_phase)
            value = evaluate(s, float(sep))
            assert abs(lead) == pytest.approx(1.0, abs=1e-9)
            assert math.copysign(1.0, value) == math.copysign(1.0, lead)
            assert abs(value) >= 1.0 - regularity_sum(s) - 1e-9


class TestBuildChain:
    def test_regular_input_is_single_level(self):
        chain = build_chain(canonicalize(1.0, 0.0, [(0.5, 0.8, 0.0)]))
        assert chain.order == 0
        assert len(chain.levels) == 1

    def test_one_step(self):
        chain = build_chain(canonicalize(1.0, 0.0, [(0.6, 1.2, 0.0)]))
        assert chain.order == 1
        level1 = chain.levels[1]
        # cos(k + pi/2) - 0.72 cos(0.6 k + pi/2), i.e. -sin k + 0.72 sin(0.6 k)
        assert level1.leading_phase == pytest.approx(math.pi / 2, abs=1e-12)
        assert level1.terms[0].amplitude == pytest.approx(0.72, abs=1e-15)
        assert level1.terms[0].phase == pytest.approx(math.pi / 2, abs=1e-12)
        for k in (0.0, 1.0, 2.5):
            assert evaluate(level1, k) == pytest.approx(
                -math.sin(k) + 0.72 * math.sin(0.6 * k), abs=1e-14
            )

    def test_deep_chain(self):
        chain = build_chain(canonicalize(1.0, 0.0, [(0.9, 2.4, 0.0)]))
        assert chain.order == 9
        assert len(chain.levels) == 10
        sums = [regularity_sum(level) for level in chain.levels]
        assert all(s > 1 - 1e-6 for s in sums[:-1])
        assert sums[-1] <= 1 - 1e-6

    def test_minimality_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            series = random_series(rng)
            chain = build_chain(series)
            assert regularity_sum(chain.levels[-1]) <= 1 - chain.margin
            for level in chain.levels[:-1]:
                assert regularity_sum(level) > 1 - chain.margin


class TestChainCheck:
    """A chain's levels must be successive derivative series."""

    SERIES = canonicalize(1.0, 0.0, [(0.5, 1.5, 0.2)])  # cos k - 1.5 cos(k/2 + 0.2)

    def test_unrelated_level_is_refused(self):
        unrelated = canonicalize(1.0, 0.3, [(0.4, 0.5, 1.0), (0.7, 0.2, 2.0)])
        with pytest.raises(ValueError, match=r"^chain level 1 is not the derivative series of level 0$"):
            solver.DescentChain(levels=(self.SERIES, unrelated), margin=1e-6)

    @pytest.mark.parametrize(
        "leading_action, leading_phase, terms",
        [
            (1.1, math.pi / 2, [(0.5, 0.75, 0.2 + math.pi / 2)]),  # leading action
            (1.0, 0.0, [(0.5, 0.75, 0.2 + math.pi / 2)]),  # leading phase
            (1.0, math.pi / 2, [(0.5, 0.75, 0.2)]),  # term phase
            (1.0, math.pi / 2, [(0.5, 0.7, 0.2 + math.pi / 2)]),  # amplitude
            (1.0, math.pi / 2, [(0.6, 0.75, 0.2 + math.pi / 2)]),  # action
            (1.0, math.pi / 2, []),  # a term dropped above the floor
        ],
    )
    def test_each_relation_is_checked(self, leading_action, leading_phase, terms):
        level = canonicalize(leading_action, leading_phase, terms)
        with pytest.raises(ValueError, match="chain level 1"):
            solver.DescentChain(levels=(self.SERIES, level, derivative_series(level)), margin=1e-6)

    def test_later_level_is_named(self):
        chain = build_chain(canonicalize(1.0, 0.0, [(0.9, 2.4, 0.0)]))
        levels = list(chain.levels)
        levels[5] = levels[4]
        with pytest.raises(ValueError, match=r"^chain level 5 "):
            solver.DescentChain(levels=tuple(levels), margin=chain.margin)

    def test_hand_built_derivatives_are_accepted(self):
        # Built through canonicalize, up to its rounding of the phases.
        level = canonicalize(1.0, math.pi / 2, [(0.5, 1.5 * 0.5, 0.2 + math.pi / 2)])
        chain = solver.DescentChain(levels=(self.SERIES, level), margin=1e-6)
        assert len(descend(chain, (0.0, 30.0))) == len(descend(build_chain(self.SERIES), (0.0, 30.0)))

    def test_bond_rows_are_checked(self):
        series = secular_series(make_wheel5())
        chain = build_chain(series)
        up = chain.levels[1]
        plain = SpectralSeries(series.leading_action, series.leading_phase, series.terms)
        # A level without bond rows above one with them is accepted.
        solver.DescentChain(levels=(series, derivative_series(plain)), margin=chain.margin)
        # Rows of other terms, rows above a level without them, and level-0
        # rows that do not sum to its actions are refused.
        misaligned = series.bonds.kept(np.arange(len(up.terms)))  # level 1 keeps 1..J-1
        refused = [
            (series, SpectralSeries(up.leading_action, up.leading_phase, up.terms, misaligned)),
            (plain, up),
        ]
        for levels in refused:
            with pytest.raises(ValueError, match="^chain level 1 "):
                solver.DescentChain(levels=levels, margin=chain.margin)
        wrong = SpectralSeries(series.leading_action, series.leading_phase, series.terms, up.bonds)
        with pytest.raises(ValueError, match="^chain level 0 "):
            solver.DescentChain(levels=(wrong,), margin=chain.margin)


class TestDescend:
    def test_pure_cosine_window(self):
        chain = build_chain(canonicalize(1.0, 0.0))
        spectrum = descend(chain, (0.0, 10.0))
        ks = spectrum.wavenumbers
        expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2]
        assert np.allclose(ks, expected, atol=1e-12)
        assert np.allclose(spectrum.energies, np.array(expected) ** 2, atol=1e-10)
        assert [e.index for e in spectrum] == [1, 2, 3]
        for e in spectrum:
            assert e.energy == e.wavenumber * e.wavenumber
            assert e.enclosure <= 1e-12

    def test_sine_window_excludes_origin(self):
        chain = build_chain(canonicalize(1.0, 3 * math.pi / 2))
        spectrum = descend(chain, (0.0, 10.0))
        assert np.allclose(spectrum.wavenumbers, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-12)

    def test_irregular_series_first_root(self):
        # (term, g(0), bracket of the first root, its approximate value, M)
        cases = [
            ((0.6, 1.2, 0.0), -0.2, (3.0, 4.0), 3.81, 1),
            ((0.5, 0.5, 0.0), 0.5, (0.0, math.pi), 1.135, 0),
        ]
        for (action, amp, phase), g0, (a, b), approx, order in cases:
            series = canonicalize(1.0, 0.0, [(action, amp, phase)])
            assert evaluate(series, 0.0) == pytest.approx(g0, abs=1e-15)
            chain = build_chain(series)
            assert chain.order == order
            spectrum = descend(chain, (0.0, 10.0))
            expected = bisect_oracle(
                lambda k: math.cos(k) - amp * math.cos(action * k + phase), a, b
            )
            assert spectrum.wavenumbers[0] == pytest.approx(expected, abs=1e-10)
            assert expected == pytest.approx(approx, abs=5e-3)

    def test_window_validation(self):
        chain = build_chain(canonicalize(1.0, 0.0))
        with pytest.raises(EmptyWindow):
            descend(chain, (5.0, 5.0))
        with pytest.raises(EmptyWindow):
            descend(chain, (5.0, 1.0))
        with pytest.raises(ValueError):
            descend(chain, (-1.0, 5.0))

    def test_interior_window(self):
        chain = build_chain(canonicalize(1.0, 0.0))
        spectrum = descend(chain, (1.0, 10.0))
        assert np.allclose(
            spectrum.wavenumbers, [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2], atol=1e-12
        )

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(17)
        series = random_series(rng)
        chain = build_chain(series)
        window = standard_window(series, 30)
        first = descend(chain, window)
        second = descend(chain, window)
        assert np.array_equal(first.wavenumbers, second.wavenumbers)
        assert [e.index for e in first] == [e.index for e in second]

    def test_descent_soundness(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            series = random_series(rng)
            chain = build_chain(series)
            spectrum, trace = descend_with_trace(chain, standard_window(series, 20))
            assert np.all(np.diff(spectrum.wavenumbers) > 0)
            for e in spectrum:
                assert e.enclosure <= 2e-12 * max(1.0, e.wavenumber)
            for m in range(chain.order + 1):
                roots = trace.level_roots[m]
                for r in roots:
                    assert abs(evaluate(chain.levels[m], float(r))) <= 1e-10
                if m < chain.order:
                    # At most one root per cell bounded by the level above.
                    above = trace.level_roots[m + 1]
                    bins = np.searchsorted(above, roots)
                    assert len(np.unique(bins)) == len(bins)

    def test_regular_level_completeness(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            series = random_series(rng)
            chain = build_chain(series)
            spectrum, trace = descend_with_trace(chain, standard_window(series, 20))
            seps = trace.separators
            top_roots = trace.level_roots[chain.order]
            interior = top_roots[(top_roots > seps[0]) & (top_roots < seps[-1])]
            assert len(interior) == len(seps) - 1

    def test_counting_against_leading_density(self):
        rng = np.random.default_rng(31)
        series = random_series(rng)
        chain = build_chain(series)
        window = standard_window(series, 40)
        _, trace = descend_with_trace(chain, window)
        top = trace.level_roots[chain.order]
        s0 = series.leading_action
        for a, b in [(0.0, window[1]), (1.0, 17.0), (5.0, 6.0), (2.0, window[1] / 2)]:
            count = int(np.sum((top >= a) & (top <= b)))
            assert abs(count - s0 * (b - a) / math.pi) <= 2

    @pytest.mark.parametrize(
        "wrong_deriv",
        [
            # -g itself: every model step points the wrong way, so lanes bisect.
            canonicalize(1.0, math.pi, [(0.5, 0.5, math.pi)]),
            # g' ~ 1e3: model roots barely move off the iterate; probe pairs
            # refute the ones that look converged.
            canonicalize(1.0, 0.0, [(0.0, -1e3, 0.0)]),
            # g' ~ 1e15: the first model root claims convergence, the probe pair refutes it.
            canonicalize(1.0, 0.0, [(0.0, -1e15, 0.0)]),
        ],
        ids=["flipped", "sluggish", "huge"],
    )
    def test_refinement_survives_a_wrong_derivative(self, wrong_deriv, monkeypatch):
        series = canonicalize(1.0, 0.0, [(0.5, 0.5, 0.0)])

        def wrong_model(s, ks, order):
            # Row 0 from the true series; rows n >= 1 from the wrong series
            # standing in for g'/s0, whose row n - 1 over n is row n of g.
            rows = taylor_array(wrong_deriv, ks, order - 1) / np.arange(1, order + 1)[:, None]
            return np.vstack((taylor_array(s, ks, 0), rows))

        monkeypatch.setattr(solver, "taylor_array", wrong_model)
        # Below k = 18 the target width is under 1e-12 (2 * 18 * BRACKET_REL_WIDTH).
        seps = base_separators(series, 0.0, 18.0)
        a, b = seps[:-1], seps[1:]
        ks, encl = solver._refine_brackets(series, a, b, evaluate_array(series, a))
        for k, e, lo, hi in zip(ks, encl, a, b):
            expected = bisect_oracle(lambda x: math.cos(x) - 0.5 * math.cos(0.5 * x), lo, hi)
            assert k == pytest.approx(expected, abs=1e-12)
            assert 0.0 < e <= solver.BRACKET_REL_WIDTH * max(1.0, k)

    @staticmethod
    def separator_brackets(window):
        # cos k - 1.2 cos(0.6k + 0.3) has M = 1: level 1 is regular, so the
        # extrema of its leading cosine bracket its roots one per cell.  The
        # phase keeps roots off the cell midpoints, where the model's centre
        # value is at noise level and moves a bracket end onto the root.
        chain = build_chain(canonicalize(1.0, 0.0, [(0.6, 1.2, 0.3)]))
        assert chain.order == 1
        series = chain.levels[1]
        seps = base_separators(series, *window)
        return series, seps[:-1], seps[1:], evaluate_array(series, seps[:-1])

    def refine_counting_probes(self, monkeypatch, series, a, b, fa):
        probes = []
        probe_pair = solver._probe_pair

        def counted(series, x, *rest):
            probes.append(x.size)
            return probe_pair(series, x, *rest)

        monkeypatch.setattr(solver, "_probe_pair", counted)
        got = solver._refine_brackets(series, a, b, fa, separators=True)
        monkeypatch.undo()
        return got, probes

    def test_separator_model_certificate_accepts(self, monkeypatch):
        series, a, b, fa = self.separator_brackets((0.0, 60.0))
        (ks, encl), probes = self.refine_counting_probes(monkeypatch, series, a, b, fa)
        assert probes == []
        # The same roots as the probe-pair path, enclosed by the model's
        # half-width, across which the series changes sign.
        ref, _ = solver._refine_brackets(series, a, b, fa)
        assert np.array_equal(ks, ref)
        slope = regularity_sum(derivative_series(series))
        delta = 0.25 * math.sqrt(solver.ENDPOINT_TOL / (1.0 + slope)) / series.leading_action
        assert np.allclose(encl, delta, rtol=1e-6)
        for k, e in zip(ks, encl):
            assert evaluate(series, k - e) * evaluate(series, k + e) < 0.0

    def test_separator_model_certificate_declines(self, monkeypatch):
        # Near k = 1e9 the model's coefficients carry angle errors of about
        # eps * 1e9, above the polynomial's values delta either side of a
        # root, so every lane falls back to the series probe pair.
        series, a, b, fa = self.separator_brackets((1e9, 1e9 + 30.0))
        (ks, encl), probes = self.refine_counting_probes(monkeypatch, series, a, b, fa)
        assert sum(probes) == len(ks) > 5
        ref, ref_encl = solver._refine_brackets(series, a, b, fa)
        assert np.array_equal(ks, ref) and np.array_equal(encl, ref_encl)

    def test_model_certificate_declines_far_from_its_centre(self):
        # cos k - 2 cos(k/2) has one root in [10, 17], near 16.46.  Its degree-16
        # model about k = 12 puts the root about 6e-5 off, far beyond the
        # half-width: only the remainder term, about 3e-4 there, keeps the
        # certificate from accepting it.
        series = canonicalize(1.0, 0.0, [(0.5, 2.0, 0.0)])
        root = bisect_oracle(lambda x: evaluate(series, x), 10.0, 17.0)
        half = 0.25 * math.sqrt(solver.ENDPOINT_TOL / 2.0)
        a, b = np.array([10.0]), np.array([17.0])
        _, far, _, side, _ = solver._model_roots(series, np.array([12.0]), a, b, half)
        assert abs(far[0] - root) > 100 * half
        assert side[0] == 0
        # About a point near the root the model certifies the sign below it.
        _, close, _, side, _ = solver._model_roots(series, np.array([16.3]), a, b, half)
        assert abs(close[0] - root) < 1e-12
        assert side[0] == -1

    def test_degenerate_double_root_detected(self):
        # cos k - cos(k/2 + pi/2) has a tangential zero at k = pi.
        series = canonicalize(1.0, 0.0, [(0.5, 1.0, math.pi / 2)])
        assert evaluate(series, math.pi) == pytest.approx(0.0, abs=1e-12)
        chain = build_chain(series)
        assert chain.order == 1
        with pytest.raises(DegenerateSpectrum):
            descend(chain, (0.0, 10.0))


def reference_model_roots(series, x, a, b, half=0.0, below=None):
    """``solver._model_roots`` with the Newton kernel it had before: the
    power table rebuilt by ``cumprod`` at every step from u = 0, and ``p'``
    by a three-operand ``einsum``.  The kernel must match it bit for bit.
    With ``below``, the coefficients ``(n + 1) d_(n+1)`` come from the
    order N + 1 model of the level below, and the bound on the terms this
    level dropped joins the remainder, as in the solver."""
    source = series if below is None else below
    order = solver.MODEL_ORDER + (below is not None)
    actions, amps, _ = source.arrays
    s0 = series.leading_action
    top = solver.MODEL_ORDER + 1
    tail = (1.0 + amps @ (actions / s0) ** (order + 1)) / math.factorial(top)
    noise = 4.0 * np.finfo(float).eps * (1.0 + amps.sum())
    dropped = 0.0 if below is None else AMPLITUDE_FLOOR * (len(amps) - len(series.terms))
    n = np.arange(1, top)[:, None]
    f, root, error = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    side = np.zeros(x.size, dtype=np.int8)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, x.size, solver.MODEL_BLOCK):
            block = slice(start, start + solver.MODEL_BLOCK)
            xb = x[block]
            lo, hi = s0 * (a[block] - xb), s0 * (b[block] - xb)
            d = taylor_array(source, xb, order)
            c = d if below is None else np.arange(1, top + 1)[:, None] * d[1:]
            f[block] = c[0]
            powers = np.ones_like(c)
            u = np.zeros(xb.size)
            for _ in range(solver.MODEL_NEWTON_STEPS):
                powers[1:] = u
                np.cumprod(powers[1:], axis=0, out=powers[1:])
                p = np.einsum("ij,ij->j", c, powers)
                dp = np.einsum("ij,ij,ij->j", n, c[1:], powers[:-1])
                new = np.clip(u - p / dp, lo, hi)
                du = np.abs(new - u)
                u = new
            root[block] = xb + u / s0
            error[block] = (du + (tail * np.abs(u) ** top + dropped) / np.abs(dp)) / s0
            if half:
                v = np.stack((u - half, u + half))
                pv = np.zeros_like(v)
                for row in range(top - 1, -1, -1):
                    pv *= v
                    pv += c[row]
                v = np.abs(v)
                rounding = s0 * np.abs(xb) + len(amps) + 30.0
                bound = tail * v**top + dropped + noise * np.exp(v) * rounding
                clear = (np.abs(pv) > bound).all(axis=0) & (pv[0] * pv[1] < 0.0)
                side[block] = np.where(clear, np.sign(pv[0]), 0.0)
    return f, root, error, side


class TestModelKernel:
    LANES = 3 * solver.MODEL_BLOCK + 17  # several blocks and a ragged last one

    @staticmethod
    def assert_matches_reference(series, x, a, b, half=0.0, below=None):
        got = solver._model_roots(series, x, a, b, half, below)
        want = reference_model_roots(series, x, a, b, half, below)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        return got

    def lanes(self, rng, series, lo, hi):
        x = rng.uniform(lo, hi, self.LANES)
        cell = math.pi / series.leading_action
        return x, x - rng.uniform(0.0, cell, x.size), x + rng.uniform(0.0, cell, x.size)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_series(self, seed):
        rng = np.random.default_rng(seed)
        series = random_series(rng, max_terms=12)
        self.assert_matches_reference(series, *self.lanes(rng, series, 0.0, 200.0))

    def test_lanes_clipped_at_a_bracket_end(self):
        rng = np.random.default_rng(5)
        series = random_series(rng)
        x, _, _ = self.lanes(rng, series, 0.0, 200.0)
        width = 1e-3 / series.leading_action
        a, b = x - width, x + width
        root = self.assert_matches_reference(series, x, a, b)[1]
        assert np.count_nonzero((root == a) | (root == b)) > self.LANES // 2

    def test_centres_near_1e9(self):
        rng = np.random.default_rng(6)
        series = random_series(rng)
        self.assert_matches_reference(series, *self.lanes(rng, series, 1e9, 1e9 + 100.0))

    def test_separator_level_with_certificate(self):
        rng = np.random.default_rng(7)
        chain = build_chain(random_series(rng, amp_sum_range=(2.0, 3.0)))
        assert chain.order >= 2
        series = chain.levels[1]
        seps = base_separators(chain.levels[-1], 0.0, 1000.0)
        roots = descend_with_trace(chain, (0.0, 1000.0))[1].level_roots[1]
        # Centres a little off the roots, in brackets reaching the separators.
        x = roots + rng.uniform(-0.3, 0.3, roots.size) / series.leading_action
        i = np.clip(np.searchsorted(seps, roots), 1, seps.size - 1)
        a, b = np.minimum(seps[i - 1], x), np.maximum(seps[i], x)
        slope = regularity_sum(derivative_series(series))
        half = 0.25 * math.sqrt(solver.ENDPOINT_TOL / (1.0 + slope))
        got = self.assert_matches_reference(series, x, a, b, half, chain.levels[0])
        assert x.size > solver.MODEL_BLOCK and np.count_nonzero(got[3]) > x.size // 2
        assert got[4].shape == x.shape


class TestSeparatorValues:
    """Separator values the model of the level above supplies in place of a
    series evaluation: each is nearer zero than the level's value there and
    has its sign, so the level pass reads the same signs as from the series."""

    @staticmethod
    def check(monkeypatch, chain, window):
        (_, trace), passes = model_separator_values(monkeypatch, chain, window)
        used = 0
        for series, xs, values in passes:
            series_values = evaluate_array(series, xs)
            assert np.array_equal(np.sign(series_values), np.sign(values))
            assert np.all(np.abs(series_values) >= np.abs(values))
            used += xs.size
        # Only separators found by a level above: the top-level grid and the
        # padded edges are evaluated.
        assert passes[0][1].size == 0
        separators = sum(len(r) for r in trace.level_roots[1:])
        return used, separators

    def test_graphs(self, monkeypatch):
        used = separators = 0
        for name in sorted(SOLVABLE_GRAPHS):
            chain = build_chain(secular_series(SOLVABLE_GRAPHS[name]()))
            u, s = self.check(monkeypatch, chain, (0.0, 60.0))
            used, separators = used + u, separators + s
        assert used > 0.9 * separators > 150

    def test_fuzz_corpus(self, monkeypatch):
        rng = np.random.default_rng(20260809)  # criterion 5 of the acceptance suite
        used = separators = 0
        for _ in range(100):
            series = random_series(rng)
            u, s = self.check(monkeypatch, build_chain(series), standard_window(series, 50))
            used, separators = used + u, separators + s
        assert used > 0.9 * separators > 1000

    def test_terms_dropped_a_level_up(self, monkeypatch):
        # Level 1 drops the constant term and the one whose amplitude falls
        # below AMPLITUDE_FLOOR; level 0's values still count them.
        series = canonicalize(1.0, 0.4, [(0.0, 0.4, 0.3), (0.1, 5e-14, 0.7), (0.6, 0.9, 1.0)])
        chain = build_chain(series)
        assert chain.order == 1 and len(chain.levels[1].terms) == 1
        used, separators = self.check(monkeypatch, chain, (0.0, 100.0))
        assert used > 0.9 * separators > 20

    def test_noise_level_separator_above_level_zero(self, monkeypatch):
        # cos(k - pi/2) - 2 cos(k/2) has M = 2, and its level 1,
        # cos k - cos(k/2 + pi/2), a double root at k = pi, where level 2 has
        # a root.  The model cannot certify a value there: the series is
        # evaluated and the double-root guard raises.
        chain = build_chain(canonicalize(1.0, -math.pi / 2, [(0.5, 2.0, 0.0)]))
        assert chain.order == 2
        level1 = chain.levels[1]
        assert evaluate(level1, math.pi) == pytest.approx(0.0, abs=1e-12)
        evaluated = []

        def recording(series, ks):
            if series is level1:
                evaluated.extend(np.asarray(ks).tolist())
            return evaluate_array(series, ks)

        monkeypatch.setattr(solver, "evaluate_array", recording)
        with pytest.raises(
            DegenerateSpectrum,
            match=r"^series value at separator 3\.14159265\d* is consistent with a double root$",
        ):
            descend(chain, (0.0, 10.0))
        assert any(abs(k - math.pi) < 1e-9 for k in evaluated)


class TestSolveGraph:
    def test_dirichlet_bond(self):
        spectrum = solve_graph(make_bond_dd(), (0.0, 10.0))
        assert np.allclose(spectrum.wavenumbers, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-12)

    def test_mixed_bond(self):
        spectrum = solve_graph(make_bond_dk(), (0.0, 10.0))
        expected = [(n - 0.5) * math.pi for n in (1, 2, 3)]
        assert np.allclose(spectrum.wavenumbers, expected, atol=1e-12)

    def test_three_star_matches_oracle(self):
        graph = make_star3()
        spectrum = solve_graph(graph, (0.0, 40.0))
        from qgspectra import secular_series

        oracle = scan_roots(secular_series(graph), (0.0, 40.0))
        assert len(spectrum) == len(oracle)
        assert np.max(np.abs(spectrum.wavenumbers - oracle)) <= 1e-8

    def test_evaluation_budget_per_root(self, monkeypatch):
        # 8-bond Dirichlet star: 9 derivative levels, about 196 roots each.
        chain = build_chain(secular_series(dirichlet_star(STAR_LENGTHS)))
        points = []

        def counted(series, ks):
            points.append(np.asarray(ks).size)
            return evaluate_array(series, ks)

        def counted_model(series, ks, order):
            # One cosine and one sine per term: two points' worth of trig.
            points.append(2 * np.asarray(ks).size)
            return taylor_array(series, ks, order)

        monkeypatch.setattr(solver, "evaluate_array", counted)
        monkeypatch.setattr(solver, "taylor_array", counted_model)
        spectrum = descend(chain, (0.0, 100.0))
        monkeypatch.undo()
        _, trace = descend_with_trace(chain, (0.0, 100.0))
        level_roots = sum(len(r) for r in trace.level_roots)
        assert chain.order >= 5 and len(spectrum) > 100
        assert sum(points) <= 16 * level_roots
        # Taylor-model refinement: about 3 series points and one model per root.
        assert sum(points) <= 8 * level_roots
        # Separator levels certify from the model, with no probe pair.
        assert sum(points) <= 4 * level_roots
        # The model that finds a separator also gives the level below's value there.
        assert sum(points) <= 3 * level_roots

    def test_descent_memory_peak(self):
        # 7-bond Dirichlet star, about 1,700 roots on each of 7 levels.  The
        # bound is about 5% above the 842 KiB peak that per-block model
        # arrays gave before separator certificates.
        chain = build_chain(secular_series(dirichlet_star(STAR_LENGTHS[:7])))
        descend(chain, (0.0, 10.0))  # build the cached term arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            spectrum = descend(chain, (0.0, 1000.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(spectrum) > 1500
        assert peak <= 880 * 1024

    def test_solvable_graphs_verify(self, solvable_graph):
        from qgspectra import secular_series, verify_spectrum

        report = verify_spectrum(secular_series(solvable_graph), (0.0, 30.0))
        assert report.clean
        assert report.max_deviation <= 1e-8


def sequential_floor_escape(series, start, cap, climbs=None):
    """Reference floor climb: the candidates of ``solver._floor_escape``
    tried one evaluation at a time, stopping at the first resolvable one."""
    x = start
    while abs(float(evaluate_array(series, np.array([x]))[0])) <= solver.ENDPOINT_TOL:
        if x >= cap:
            raise DegenerateSpectrum("zero on the climb")
        x = min(x * 4.0, cap)
    if climbs is not None and x != start:
        climbs.append(start)
    return x


def assert_matches_oracle(series, window):
    spectrum = descend(build_chain(series), window)
    oracle = scan_roots(series, window)
    assert len(spectrum) == len(oracle) > 0
    assert np.max(np.abs(spectrum.wavenumbers - oracle)) <= 1e-9


class TestEdgeClimb:
    WINDOWS = [(0.0, 60.0), (17.3, 41.9)]

    def test_batched_climb_matches_sequential(self, monkeypatch):
        # One evaluation call per climb must pick the same edge points as
        # one call per point: same padded windows, level roots and spectra.
        batched = {}
        for name, make in SOLVABLE_GRAPHS.items():
            chain = build_chain(secular_series(make()))
            for window in self.WINDOWS:
                batched[name, window] = descend_with_trace(chain, window)
        climbs = []
        monkeypatch.setattr(
            solver, "_floor_escape", lambda *a: sequential_floor_escape(*a, climbs=climbs)
        )
        for (name, window), (spectrum, trace) in batched.items():
            chain = build_chain(secular_series(SOLVABLE_GRAPHS[name]()))
            ref_spectrum, ref_trace = descend_with_trace(chain, window)
            assert spectrum.entries == ref_spectrum.entries, (name, window)
            assert trace.padded_window == ref_trace.padded_window
            assert np.array_equal(trace.separators, ref_trace.separators)
            assert len(trace.level_roots) == len(ref_trace.level_roots)
            for got, want in zip(trace.level_roots, ref_trace.level_roots):
                assert np.array_equal(got, want), (name, window)
        assert climbs  # some lower edge had to climb off the floor

    def test_floor_climb_matches_sequential(self):
        # cos k - cos(k/2) is even with a double zero at k = 0.
        series = canonicalize(1.0, 0.0, [(0.5, 1.0, 0.0)])
        start = solver.POSITIVE_FLOOR
        climbs = []
        want = sequential_floor_escape(series, start, start + 0.25 * math.pi, climbs=climbs)
        assert climbs
        assert solver._floor_escape(series, start, start + 0.25 * math.pi) == want
        with pytest.raises(DegenerateSpectrum):
            solver._floor_escape(series, start, start)

    def test_resolvable_floor_costs_one_point(self, monkeypatch):
        # cos k - 0.5 cos(k/2) is 0.5 at k = 0: the climb stops at its start.
        series = canonicalize(1.0, 0.0, [(0.5, 0.5, 0.0)])
        points = []

        def counting(s, ks):
            points.append(np.size(ks))
            return evaluate_array(s, ks)

        monkeypatch.setattr(solver, "evaluate_array", counting)
        start = solver.POSITIVE_FLOOR
        assert solver._floor_escape(series, start, start + 0.25 * math.pi) == start
        assert points == [1]

    def test_padded_edges_on_roots(self):
        # M = 0 and a one-cell pad: both padded edges, pi/2 and 7pi/2, are roots.
        series = canonicalize(1.0, 0.0, [])
        window = (1.5 * math.pi, 2.5 * math.pi)
        _, trace = descend_with_trace(build_chain(series), window)
        assert all(abs(evaluate(series, x)) <= solver.ENDPOINT_TOL for x in trace.padded_window)
        assert_matches_oracle(series, window)

    @pytest.mark.parametrize("level,bracket", [(1, (13.0, 13.7)), (0, (19.3, 19.7))])
    def test_upper_padded_edge_on_a_level_root(self, level, bracket):
        # cos k - 1.2 cos(0.6k) has M = 1, so the upper padded edge is
        # kmax + 2 pi; the window puts it on a root of the given level.
        series = canonicalize(1.0, 0.0, [(0.6, 1.2, 0.0)])
        chain = build_chain(series)
        assert chain.order == 1
        root = bisect_oracle(lambda x: evaluate(chain.levels[level], x), *bracket)
        window = (2.0, root - 2.0 * math.pi)
        _, trace = descend_with_trace(chain, window)
        assert abs(evaluate(chain.levels[level], trace.padded_window[1])) <= solver.ENDPOINT_TOL
        assert_matches_oracle(series, window)
