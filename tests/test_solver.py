"""Separator grids, the derivative chain and the descent."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from qgspectra import oracle, solver
from qgspectra import (
    DegenerateSpectrum,
    NotRegular,
    SizeCapExceeded,
    ValidationError,
    build_chain,
    canonicalize,
    descend,
    descend_with_trace,
    evaluate_array,
    scan_roots,
    secular_series,
    solve_graph,
)
from qgspectra.cli import main
from qgspectra.fuzz import random_series, standard_window
from qgspectra.series import (
    AMPLITUDE_FLOOR,
    derivative_series,
    regularity_sum,
    taylor_array,
)
from qgspectra.solver import base_separators

from conftest import (
    SOLVABLE_GRAPHS,
    STAR_LENGTHS,
    dirichlet_star,
    evaluate,
    make_bond_dd,
    make_bond_dk,
    make_star3,
    make_wheel5,
    model_separator_values,
)
from test_acceptance import FUZZ_SEED
from test_series import bond_graphs


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
        assert base_separators(s, 0.1, 0.2).size == 0  # between two extrema

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

    def test_grid_cap(self, monkeypatch):
        # Windows one cell either side of a cap of 100 cells.
        s = canonicalize(1.0, 0.0, [(0.5, 0.5, 0.0)])
        monkeypatch.setattr(solver, "MAX_GRID_CELLS", 100)
        assert base_separators(s, 0.5, 99.5 * math.pi).size == 99
        with pytest.raises(SizeCapExceeded, match=r"^window: \[.*\] spans 101 separator cells"):
            base_separators(s, 0.5, 101.5 * math.pi)
        with pytest.raises(SizeCapExceeded):
            descend(build_chain(s), (100.0, 100.0 + 101 * math.pi))

    def test_levels_are_read_off_level_0(self):
        # Level m's grid and regularity check are those of the derived series
        # chain.levels[m], bit for bit: NotRegular below the order, alike.
        def grid(*args, **kwargs):
            try:
                return base_separators(*args, **kwargs)
            except NotRegular as exc:
                return str(exc)

        rng = np.random.default_rng(23)
        corpus = [secular_series(graph) for graph in bond_graphs().values()]
        corpus += [random_series(rng) for _ in range(20)]
        for series in corpus:
            chain = build_chain(series)
            for window in ((0.0, 60.0), (1e6, 1e6 + 30.0)):
                for m, level in enumerate(chain.levels):
                    got = grid(series, *window, chain.margin, level=m)
                    want = grid(level, *window, chain.margin)
                    assert isinstance(got, str) == (m < chain.order)
                    if m < chain.order:
                        assert got == want
                    else:
                        assert np.array_equal(got, want)

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
    """A chain is a series, an order and a margin; its levels are derived."""

    SERIES = canonicalize(1.0, 0.0, [(0.9, 2.4, 0.0)])  # M = 9

    def test_order_below_regularity_is_refused(self):
        chain = solver.DescentChain(self.SERIES, build_chain(self.SERIES).order - 1, 1e-6)
        with pytest.raises(NotRegular, match=r"^term sum \S+ is not at most 0\.999999$"):
            descend(chain, (0.0, 30.0))

    def test_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="order must be >= 0"):
            solver.DescentChain(self.SERIES, -1, 1e-6)

    def test_hand_built_derivatives_are_accepted(self):
        # Two levels more than needed: the same roots, up to rounding.
        chain = build_chain(self.SERIES)
        deeper = solver.DescentChain(self.SERIES, chain.order + 2, chain.margin)
        want = descend(chain, (0.0, 60.0)).wavenumbers
        got = descend(deeper, (0.0, 60.0)).wavenumbers
        assert len(got) == len(want) > 10
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, want))

    @pytest.mark.parametrize("make", [make_wheel5, make_star3], ids=["wheel5", "star3"])
    def test_levels_are_derivative_series(self, make):
        series = secular_series(make())
        chain = build_chain(series)
        level = series
        for m, got in enumerate(chain.levels):
            assert got.terms == level.terms and got.leading_phase == level.leading_phase, m
            assert got.arrays.tobytes() == level.arrays.tobytes()
            level = derivative_series(level)
        assert len(chain.levels) == chain.order + 1


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
        with pytest.raises(ValidationError, match="contains no interval"):
            descend(chain, (5.0, 5.0))
        with pytest.raises(ValidationError, match="contains no interval"):
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

        def wrong_model(s, ks, order, level=0):
            # Row 0 from the true series; rows n >= 1 from the wrong series
            # standing in for g'/s0, whose row n - 1 over n is row n of g.
            rows = taylor_array(wrong_deriv, ks, order - 1) / np.arange(1, order + 1)[:, None]
            return np.vstack((taylor_array(s, ks, 0, level), rows))

        monkeypatch.setattr(solver, "taylor_array", wrong_model)
        # Below k = 18 the target width is under 1e-12 (2 * 18 * BRACKET_REL_WIDTH).
        seps = base_separators(series, 0.0, 18.0)
        a, b = seps[:-1], seps[1:]
        ks, encl, _ = solver._refine_brackets(series, a, b, evaluate_array(series, a))
        for k, e, lo, hi in zip(ks, encl, a, b):
            expected = bisect_oracle(lambda x: math.cos(x) - 0.5 * math.cos(0.5 * x), lo, hi)
            assert k == pytest.approx(expected, abs=1e-12)
            assert 0.0 < e <= solver.BRACKET_REL_WIDTH * max(1.0, k)

    def test_enclosure_after_a_clipped_probe_pair(self):
        # The bracket's upper end sits 8e-15 above the root, inside the
        # probe pair's half-width h, so the pair is clipped there and the
        # root is off the enclosing bracket's centre.  The enclosure reaches
        # the far end, max(x - a, b - x), not half the bracket's width.
        series = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0)])
        r = 1.3327320510340566
        a, b = np.array([r - 0.3]), np.array([r + 8e-15])
        ks, encl, _ = solver._refine_brackets(series, a, b, evaluate_array(series, a))
        h = 0.5 * solver.BRACKET_REL_WIDTH * max(1.0, abs(ks[0]))
        assert ks[0] == pytest.approx(r, abs=h)
        assert 0.9 * h <= encl[0] <= 2.0 * h

    @staticmethod
    def separator_brackets(window):
        # cos k - 1.2 cos(0.6k + 0.3) has M = 1: level 1 is regular, so the
        # extrema of its leading cosine bracket its roots one per cell.  The
        # phase keeps roots off the cell midpoints, where the model's centre
        # value is at noise level and moves a bracket end onto the root.
        chain = build_chain(canonicalize(1.0, 0.0, [(0.6, 1.2, 0.3)]))
        assert chain.order == 1
        seps = base_separators(chain.levels[1], *window)
        fa = evaluate_array(chain.series, seps[:-1], 1)
        return chain, seps[:-1], seps[1:], fa

    @staticmethod
    def refine_counting_probes(monkeypatch, series, a, b, fa, certify=True):
        # Level 1's brackets, with the model's certificate or, to give the
        # probe-pair path, with every lane's certified sign cleared.
        probes = []
        probe_pair, model_roots = solver._probe_pair, solver._model_roots

        def counted(series, x, *rest):
            probes.append(x.size)
            return probe_pair(series, x, *rest)

        def uncertified(*args):
            f, root, error, side, values = model_roots(*args)
            return f, root, error, np.zeros_like(side), values

        monkeypatch.setattr(solver, "_probe_pair", counted)
        if not certify:
            monkeypatch.setattr(solver, "_model_roots", uncertified)
        got = solver._refine_brackets(series, a, b, fa, level=1)
        monkeypatch.undo()
        return got, probes

    def test_separator_model_certificate_accepts(self, monkeypatch):
        chain, a, b, fa = self.separator_brackets((0.0, 60.0))
        (ks, encl, values), probes = self.refine_counting_probes(
            monkeypatch, chain.series, a, b, fa
        )
        assert probes == []
        # Every root was closed by the model, so each has level 0's value.
        assert np.isfinite(values).all()
        # The same roots as the probe-pair path, enclosed by the model's
        # half-width, across which the series changes sign.
        (ref, _, _), probes = self.refine_counting_probes(
            monkeypatch, chain.series, a, b, fa, certify=False
        )
        assert np.array_equal(ks, ref) and sum(probes) == len(ks)
        levels = solver.DescentChain(chain.series, 2, chain.margin).levels
        delta = 0.25 * math.sqrt(solver.ENDPOINT_TOL / (1.0 + regularity_sum(levels[2])))
        assert np.allclose(encl, delta / chain.series.leading_action, rtol=1e-6)
        for k, e in zip(ks, encl):
            assert evaluate(levels[1], k - e) * evaluate(levels[1], k + e) < 0.0

    def test_separator_model_certificate_declines(self, monkeypatch):
        # Near k = 1e9 the model's coefficients carry angle errors of about
        # eps * 1e9, above the polynomial's values delta either side of a
        # root, so every lane falls back to the series probe pair.
        chain, a, b, fa = self.separator_brackets((1e9, 1e9 + 30.0))
        (ks, encl, values), probes = self.refine_counting_probes(
            monkeypatch, chain.series, a, b, fa
        )
        assert sum(probes) == len(ks) > 5
        # No root was closed by the model, so level 0 evaluates every one.
        assert values.size == len(ks) and np.isnan(values).all()
        (ref, ref_encl, _), _ = self.refine_counting_probes(
            monkeypatch, chain.series, a, b, fa, certify=False
        )
        assert np.array_equal(ks, ref) and np.array_equal(encl, ref_encl)

    def test_separator_model_against_its_bracket_is_probed(self, monkeypatch):
        # A model whose certified sign below the candidate is the opposite of
        # the bracket's left end contradicts the separator argument.  Such a
        # lane is not held on the model: it takes the probe pair, and its
        # level-below value is left to the series (NaN).
        chain, a, b, fa = self.separator_brackets((0.0, 60.0))
        flipped, probed = set(), set()
        model_roots, probe_pair = solver._model_roots, solver._probe_pair

        def bracket(x):  # the index of the original bracket holding each point
            return np.searchsorted(a, x, side="right") - 1

        def contradicted(series, x, *rest):
            f, root, error, side, values = model_roots(series, x, *rest)
            flip = (bracket(x) % 2 == 0) & (side != 0)
            side[flip] = -side[flip]
            flipped.update(bracket(x[flip]).tolist())
            return f, root, error, side, values

        def spied(series, x, *rest):
            probed.update(bracket(x).tolist())
            return probe_pair(series, x, *rest)

        monkeypatch.setattr(solver, "_model_roots", contradicted)
        monkeypatch.setattr(solver, "_probe_pair", spied)
        ks, _, values = solver._refine_brackets(chain.series, a, b, fa, level=1)
        assert len(flipped) > 5 and flipped <= probed
        assert np.isnan(values[sorted(flipped)]).all()
        # The lanes left as they were are held on the model.
        kept = sorted(set(range(len(ks))) - probed)
        assert len(kept) > 5 and np.isfinite(values[kept]).all()

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


def reference_model_roots(series, x, a, b, half=0.0, level=0):
    """``solver._model_roots`` with the Newton kernel it had before: the
    power table rebuilt by ``cumprod`` at every step from u = 0, and ``p'``
    by a three-operand ``einsum``.  The kernel must match it bit for bit.
    Above level 0, the coefficients ``(n + 1) d_(n+1)`` come from the
    order N + 1 model of the level below, as in the solver, built as a
    separate table.  The fifth item holds the level below's values from
    ``_polyval(d, u)``, the sixth ``sum_n |d_n| |u|**n``, which scales their
    rounding (None at level 0)."""
    source = max(level - 1, 0)
    order = solver.MODEL_ORDER + (level > 0)
    actions, amps, _ = series.arrays
    s0 = series.leading_action
    ratios = actions / s0
    top = solver.MODEL_ORDER + 1
    tail = (1.0 + amps @ ratios ** (level + top)) / math.factorial(top)
    noise = 4.0 * np.finfo(float).eps * (1.0 + (amps * ratios**source).sum())
    n = np.arange(1, top)[:, None]
    f, root, error = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    side = np.zeros(x.size, dtype=np.int8)
    level_below, magnitude = (np.empty(x.size), np.empty(x.size)) if level else (None, None)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, x.size, solver.MODEL_BLOCK):
            block = slice(start, start + solver.MODEL_BLOCK)
            xb = x[block]
            lo, hi = s0 * (a[block] - xb), s0 * (b[block] - xb)
            d = taylor_array(series, xb, order, source)
            c = np.arange(1, top + 1)[:, None] * d[1:] if level else d
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
            error[block] = (du + tail * np.abs(u) ** top / np.abs(dp)) / s0
            rounding = s0 * np.abs(xb) + len(amps) + 30.0
            if half:
                v = np.stack((u - half, u + half))
                pv = np.zeros_like(v)
                for row in range(top - 1, -1, -1):
                    pv *= v
                    pv += c[row]
                v = np.abs(v)
                bound = tail * v**top + noise * np.exp(v) * rounding
                clear = (np.abs(pv) > bound).all(axis=0) & (pv[0] * pv[1] < 0.0)
                side[block] = np.where(clear, np.sign(pv[0]), 0.0)
            if level:
                value = solver._polyval(d, u)
                v = np.abs(u)
                bound = tail * v ** (top + 1) / (top + 1) + noise * np.exp(v) * rounding
                level_below[block] = np.copysign(np.maximum(np.abs(value) - bound, 0.0), value)
                magnitude[block] = solver._polyval(np.abs(d), v)
    return f, root, error, side, level_below, magnitude


class TestModelKernel:
    LANES = 3 * solver.MODEL_BLOCK + 17  # several blocks and a ragged last one

    @staticmethod
    def assert_matches_reference(series, x, a, b, half=0.0, level=0):
        got = solver._model_roots(series, x, a, b, half, level)
        want = reference_model_roots(series, x, a, b, half, level)
        for g, w in zip(got[:4], want[:4]):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        if level:
            # The level below's value is summed from the slope coefficients
            # c_(n-1) / n, so its bits may move: by at most (2N + 4) eps
            # sum |d_n| |u|**n to first order, the rounding of two Horner
            # sums and of d_n read back as c_(n-1) / n.  Twice that is allowed.
            got_below, want_below, magnitude = got[4], want[4], want[5]
            both = (got_below != 0.0) & (want_below != 0.0)
            assert np.array_equal(np.sign(got_below[both]), np.sign(want_below[both]))
            slack = (4 * solver.MODEL_ORDER + 12) * np.finfo(float).eps * magnitude
            assert np.all(np.abs(got_below - want_below) <= slack)
        else:
            assert got[4] is None and want[4] is None
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
        series = chain.series
        seps = base_separators(chain.levels[-1], 0.0, 2000.0)
        roots = descend_with_trace(chain, (0.0, 2000.0))[1].level_roots[1]
        # Centres a little off the roots, in brackets reaching the separators.
        x = roots + rng.uniform(-0.3, 0.3, roots.size) / series.leading_action
        i = np.clip(np.searchsorted(seps, roots), 1, seps.size - 1)
        a, b = np.minimum(seps[i - 1], x), np.maximum(seps[i], x)
        half = 0.25 * math.sqrt(solver.ENDPOINT_TOL / (1.0 + regularity_sum(chain.levels[2])))
        got = self.assert_matches_reference(series, x, a, b, half, 1)
        assert x.size > solver.MODEL_BLOCK and np.count_nonzero(got[3]) > x.size // 2
        assert got[4].shape == x.shape

    def test_block_memory(self):
        # One block of a separator level, certificate and level below
        # included, on the 7-bond Dirichlet star.  MODEL_BLOCK is sized from
        # this footprint: the Newton tables, 3N + 3 floats a lane, and
        # about a dozen single rows.  The bound is about 5% above the 516
        # bytes a lane measured with c_n formed in place over d and the
        # Newton tables freed before the certificate.
        chain = build_chain(secular_series(dirichlet_star(STAR_LENGTHS[:7])))
        series = chain.series
        x = np.linspace(1.0, 500.0, solver.MODEL_BLOCK)
        cell = math.pi / series.leading_action
        a, b = x - 0.5 * cell, x + 0.5 * cell
        half = 0.25 * math.sqrt(solver.ENDPOINT_TOL / (1.0 + regularity_sum(chain.levels[2])))
        solver._model_roots(series, x, a, b, half, 1)  # build the cached weights
        tracemalloc.start()
        try:
            out = solver._model_roots(series, x, a, b, half, 1)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(out[3]) > 0
        assert peak - current <= 540 * x.size  # net of the returned arrays


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
        # Level 1 drops the constant term only: the term whose amplitude
        # falls below AMPLITUDE_FLOOR there stays, and level 0's values
        # count both.
        series = canonicalize(1.0, 0.4, [(0.0, 0.4, 0.3), (0.1, 5e-14, 0.7), (0.6, 0.9, 1.0)])
        chain = build_chain(series)
        assert chain.order == 1
        assert [t.action for t in chain.levels[1].terms] == [0.1, 0.6]
        assert chain.levels[1].terms[0].amplitude == 5e-14 * 0.1 < AMPLITUDE_FLOOR
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

        def recording(series, ks, level=0):
            if level == 1:
                evaluated.extend(np.asarray(ks).tolist())
            return evaluate_array(series, ks, level)

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

        def counted(series, ks, level=0):
            points.append(np.asarray(ks).size)
            return evaluate_array(series, ks, level)

        def counted_model(series, ks, order, level=0):
            # One cosine and one sine per term: two points' worth of trig.
            points.append(2 * np.asarray(ks).size)
            return taylor_array(series, ks, order, level)

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
        # arrays gave before separator certificates.  It reads 828 KiB with
        # 744-lane model blocks that free all their arrays, single rows too,
        # at their end (857 KiB while those rows outlived the block).
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

    @pytest.mark.parametrize("amplitude", [0.5, 1.0], ids=["resolvable", "double-zero"])
    def test_climb_is_one_call(self, monkeypatch, amplitude):
        # cos k - 0.5 cos(k/2) is 0.5 at k = 0, so the climb stops at its
        # start; cos k - cos(k/2) climbs.  Either way one call evaluates the
        # whole climb, start first.
        series = canonicalize(1.0, 0.0, [(0.5, amplitude, 0.0)])
        calls = []

        def counting(s, ks, level=0):
            calls.append(np.array(ks))
            return evaluate_array(s, ks, level)

        monkeypatch.setattr(solver, "evaluate_array", counting)
        start = solver.POSITIVE_FLOOR
        cap = start + 0.25 * math.pi
        edge = solver._floor_escape(series, start, cap)
        assert (edge == start) == (amplitude == 0.5)
        [climb] = calls
        assert climb[0] == start and climb[-1] == cap
        assert np.array_equal(climb[1:-1], start * 4.0 ** np.arange(1, climb.size - 1))
        assert edge in climb

    @staticmethod
    def shared_edge(series):
        """Level 0's escape off the floor: where ``scan_roots`` starts."""
        start = solver.POSITIVE_FLOOR
        return solver._floor_escape(series, start, start + 0.25 * math.pi / series.leading_action)

    @pytest.mark.parametrize("case", ["star8", "fuzz"])
    def test_every_level_starts_at_the_shared_edge(self, monkeypatch, case):
        if case == "star8":
            series, window = secular_series(dirichlet_star(STAR_LENGTHS)), (0.0, 100.0)
        else:
            rng = np.random.default_rng(FUZZ_SEED)
            series = [random_series(rng) for _ in range(8)][-1]  # criterion 5's eighth, M = 3 or more
            window = standard_window(series, 50)
        chain = build_chain(series)
        assert chain.order >= 3
        edge = self.shared_edge(series)
        assert edge > solver.POSITIVE_FLOOR if case == "star8" else edge == solver.POSITIVE_FLOOR
        scan_starts = []
        uniform_grid = oracle.uniform_grid
        monkeypatch.setattr(
            oracle, "uniform_grid", lambda s, lo, *a: scan_starts.append(lo) or uniform_grid(s, lo, *a)
        )
        scan_roots(series, window)
        assert scan_starts == [edge]
        lower = []
        level_pass = solver._level_pass

        def recording(s, bounds, *args, **kwargs):
            lower.append(bounds[0])
            return level_pass(s, bounds, *args, **kwargs)

        monkeypatch.setattr(solver, "_level_pass", recording)
        descend(chain, window)
        assert lower == [edge] * (chain.order + 1)

    def test_one_climb_per_solve_from_the_floor(self, monkeypatch):
        climbs = []
        escape = solver._floor_escape
        monkeypatch.setattr(solver, "_floor_escape", lambda *a: climbs.append(a) or escape(*a))
        for make in SOLVABLE_GRAPHS.values():
            chain = build_chain(secular_series(make()))
            for window in self.WINDOWS:
                climbs.clear()
                _, trace = descend_with_trace(chain, window)
                assert len(climbs) == (trace.padded_window[0] == solver.POSITIVE_FLOOR)
                assert len(climbs) == (window[0] == 0.0)

    def test_upper_levels_clear_the_tolerance_at_the_shared_edge(self):
        # Near k = 0 a level with a zero of order p there is about s0 k / p
        # times the level above it: where level 0 is resolvable, every level
        # above is more so (160-fold the tolerance at the least, measured on
        # the workload graphs and the fuzz corpus).
        rng = np.random.default_rng(FUZZ_SEED)
        corpus = [secular_series(make()) for make in SOLVABLE_GRAPHS.values()]
        corpus += [random_series(rng) for _ in range(50)]
        for series in corpus:
            chain = build_chain(series)
            edge = np.array([self.shared_edge(series)])
            for m in range(1, chain.order + 1):
                assert abs(evaluate_array(series, edge, m)[0]) >= 10.0 * solver.ENDPOINT_TOL

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


class TestNoDerivedSeries:
    THREE_STAR = {
        "graph": {
            "vertices": [{"id": 0, "bc": "kirchhoff"}]
            + [{"id": i, "bc": "dirichlet"} for i in (1, 2, 3)],
            "bonds": [
                {"from": 0, "to": i, "length": length}
                for i, length in zip((1, 2, 3), (1.0, 0.71, 0.43))
            ],
        },
        "window": {"kmin": 0.0, "kmax": 30.0},
    }

    def test_solves_without_derivative_series(self, monkeypatch, tmp_path, capsys):
        # Every level is read off level 0: with derivative_series gone, the
        # library and every command give the same output as with it.
        config = tmp_path / "three_star.json"
        config.write_text(json.dumps(self.THREE_STAR), encoding="utf-8")
        fuzz = random_series(np.random.default_rng(5))
        assert build_chain(fuzz).order >= 1

        def outputs():
            got = [
                solve_graph(dirichlet_star(STAR_LENGTHS[:8]), (0.0, 30.0)).entries,
                solve_graph(make_wheel5(), (0.0, 30.0)).entries,
                descend(build_chain(fuzz), standard_window(fuzz, 50)).entries,
            ]
            for command in ("solve", "verify", "sample", "series"):
                assert main([command, str(config)]) == 0
                got.append(capsys.readouterr().out)
            return got

        expected = outputs()

        def refused(series):
            raise AssertionError("a solve built a derived series")

        monkeypatch.setattr(solver, "derivative_series", refused)
        assert outputs() == expected


class TestFloatResolution:
    def test_high_windows_solve_or_are_refused(self):
        # Windows (K, K + 100] for K = 2**36 ... 2**62: each solves or is
        # refused as beyond float resolution, and refused at every higher K
        # once refused; none reaches the descent's internal sign check.
        # From K = 2**60 on, K + 100 rounds to K and the window is empty.
        rng = np.random.default_rng(29)
        corpus = [
            canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0)]),
            canonicalize(4.0, 0.3, [(3.0, 0.6, 0.5), (1.0, 0.3, 2.0)]),
            secular_series(make_star3()),
        ] + [random_series(rng) for _ in range(4)]
        outcomes = []
        for series in corpus:
            chain = build_chain(series)
            outcome = []
            for e in range(36, 63, 2):
                window = (2.0**e, 2.0**e + 100.0)
                try:
                    descend(chain, window)
                    outcome.append("solved")
                except SizeCapExceeded as exc:
                    assert str(exc).startswith("window: ") and "beyond float resolution" in str(exc)
                    outcome.append("refused")
                except ValidationError:
                    assert window[1] == window[0]
                    outcome.append("empty")
            assert outcome == sorted(outcome, key=["solved", "refused", "empty"].index)
            outcomes.append(outcome)
        # s0 = 1 with term sum 0.3: from 2**46 on, where the target bracket
        # width 1e-13 * k passes the leading cell pi, every window is refused.
        assert outcomes[0][:8] == ["solved"] * 5 + ["refused"] * 3
        assert all("solved" in o and "refused" in o for o in outcomes)

    def test_windows_past_the_separator_spread_are_refused(self):
        # Term sum 0.99999 leaves the leading cosine a margin of acos(T),
        # 4.5e-3 rad, at its extrema.  Float spacing at 2**42 puts the
        # separators 6.5 * ulp = 6.3e-3 rad off them, so the grid no longer
        # brackets one root per cell and the window is refused, far below
        # the bracket-width rule's 3.1e13.  At 2**41 the spread is 3.2e-3.
        chain = build_chain(canonicalize(1.0, 0.0, [(0.5, 0.99999, 0.0)]))
        assert chain.order == 0
        assert len(descend(chain, (2.0**41, 2.0**41 + 20.0))) == 7
        with pytest.raises(SizeCapExceeded, match="off the leading cosine's extrema"):
            descend(chain, (2.0**42, 2.0**42 + 20.0))

    def test_windows_past_the_bracket_width_are_refused(self):
        # The first fuzz series of seed 7 (s0 = 1.788, M = 1).  At 2**46 the
        # target bracket width, 7, exceeds the leading cell, 1.76: every
        # level-1 root would be a cell midpoint, and the descent would count
        # 10 roots where a 45-digit scan finds 11.  Windows are refused from
        # about k = pi / (s0 * 1e-13) = 1.76e13 on; at 2**43 the roots inside
        # the window are the scan's, one in each of its sign-change cells.
        mpmath = pytest.importorskip("mpmath")
        series = random_series(np.random.default_rng(7))
        chain = build_chain(series)
        with pytest.raises(SizeCapExceeded, match=r"^window: .*beyond float resolution"):
            descend(chain, (2.0**46, 2.0**46 + 20.0))
        k_lo, k_hi = 2.0**43, 2.0**43 + 20.0
        ks = descend(chain, (k_lo, k_hi)).wavenumbers
        ks = ks[(ks > k_lo) & (ks <= k_hi)]
        mpf = mpmath.mpf
        with mpmath.workdps(45):
            terms = [(mpf(series.leading_action), mpf(1), mpf(series.leading_phase))]
            terms += [(mpf(t.action), -mpf(t.amplitude), mpf(t.phase)) for t in series.terms]
            grid = [mpf(k_lo) + mpf(k_hi - k_lo) * i / 4000 for i in range(4001)]
            signs = [mpmath.sign(mpmath.fsum(a * mpmath.cos(s * k + p) for s, a, p in terms))
                     for k in grid]
            cells = [(grid[i], grid[i + 1]) for i in range(4000) if signs[i] != signs[i + 1]]
            assert len(cells) == ks.size == 7
            assert all(a <= mpf(k) <= b for k, (a, b) in zip(ks.tolist(), cells))

    def test_three_star_solves_at_1e9_and_1e12(self):
        # The counts are the windows' eigenphase counts, and every reported
        # root's enclosure meets its window.
        chain = build_chain(secular_series(make_star3()))
        for window, count in [
            ((1e9, 1e9 + 20.0), 13),
            ((1e12, 1e12 + 50.0), 34),
            ((1e12, 1e12 + 10.0), 7),
            ((1e12, 1e12 + 0.01), 0),
        ]:
            spectrum = descend(chain, window)
            assert len(spectrum) == count
            for e in spectrum:
                assert e.wavenumber - e.enclosure <= window[1]
                assert e.wavenumber + e.enclosure >= window[0]


class TestWindowMembership:
    def test_enclosure_decides_membership(self):
        # cos k has its root at pi/2, enclosed to below 1e-13: a window
        # 1e-12 short of it reports nothing, and a window that stops half an
        # enclosure short of the reported k still meets the enclosure.
        chain = build_chain(canonicalize(1.0, 0.0))
        assert len(descend(chain, (0.0, math.pi / 2 - 1e-12))) == 0
        assert len(descend(chain, (math.pi / 2 + 1e-12, 3.0))) == 0
        (entry,) = descend(chain, (0.0, math.pi / 2))
        k, half = entry.wavenumber, 0.5 * entry.enclosure
        assert 0.0 < entry.enclosure < 1e-12
        assert descend(chain, (0.0, k - half)).wavenumbers.tolist() == [k]
        assert descend(chain, (k + half, 3.0)).wavenumbers.tolist() == [k]

    @staticmethod
    def sub_windows(rng, ks, window):
        """Random sub-windows inside ``window``, and sub-windows whose edges
        sit three target bracket widths either side of two of the roots."""
        for _ in range(4):
            a, b = np.sort(rng.uniform(*window, size=2))
            yield float(a), float(b)
        if ks.size >= 2:
            i, j = sorted(rng.choice(ks.size, size=2, replace=False))
            near = 3.0 * solver.BRACKET_REL_WIDTH * ks[[i, j]]
            yield float(ks[i] - near[0]), float(ks[j] + near[1])
            yield float(ks[i] + near[0]), float(ks[j] - near[1])

    def assert_local(self, series, window, rng, bitwise):
        # A sub-window's solve reports the whole window's roots whose
        # enclosure meets the sub-window: the padding keeps the edge cells'
        # effects out of the window.
        chain = build_chain(series)
        spectrum = descend(chain, window)
        ks = spectrum.wavenumbers
        encl = np.array([e.enclosure for e in spectrum])
        for sub in self.sub_windows(rng, ks, window):
            got = descend(chain, sub)
            got_ks = got.wavenumbers
            got_encl = np.array([e.enclosure for e in got])
            meets = (ks - encl <= sub[1]) & (ks + encl >= sub[0])
            assert got_ks.size == np.count_nonzero(meets), (series, sub)
            if bitwise:
                assert got_ks.tolist() == ks[meets].tolist(), (series, sub)
                assert got_encl.tolist() == encl[meets].tolist(), (series, sub)
            else:
                assert np.all(np.abs(got_ks - ks[meets]) <= got_encl + encl[meets]), (series, sub)

    def test_sub_windows_of_fuzz_series(self):
        # The per-term kernel's matrix products can round a point's value
        # by a last bit that depends on the batch, too (ROADMAP item 17),
        # yet on these series the roots and enclosures are the whole
        # window's, bit for bit.
        rng = np.random.default_rng(67)
        for _ in range(40):
            series = random_series(rng)
            cell = math.pi / series.leading_action
            self.assert_local(series, (10 * cell, 60 * cell), rng, bitwise=True)

    @pytest.mark.parametrize("arms", [6, 7])
    def test_sub_windows_of_stars(self, arms):
        # The bond kernel's matrix product can round a point's value by a
        # last bit that depends on the points it shares a block with, so a
        # root may move inside its enclosure; the two certified intervals
        # still overlap.
        rng = np.random.default_rng(arms)
        for _ in range(2):
            star = dirichlet_star(rng.uniform(0.5, 1.5, size=arms))
            self.assert_local(secular_series(star), (20.0, 120.0), rng, bitwise=False)
