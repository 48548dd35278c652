"""Separator grids, the derivative chain and the descent."""

import math

import numpy as np
import pytest

from qgspectra import solver
from qgspectra import (
    BondSpec,
    DegenerateSpectrum,
    EmptyWindow,
    NotRegular,
    QuantumGraph,
    VertexSpec,
    base_separators,
    build_chain,
    canonicalize,
    descend,
    descend_with_trace,
    evaluate,
    evaluate_array,
    regularity_sum,
    scan_roots,
    secular_series,
    solve_graph,
)
from qgspectra.fuzz import random_series, standard_window
from qgspectra.series import taylor_array

from conftest import SOLVABLE_GRAPHS, make_bond_dd, make_bond_dk, make_star3


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

    def test_degenerate_double_root_detected(self):
        # cos k - cos(k/2 + pi/2) has a tangential zero at k = pi.
        series = canonicalize(1.0, 0.0, [(0.5, 1.0, math.pi / 2)])
        assert evaluate(series, math.pi) == pytest.approx(0.0, abs=1e-12)
        chain = build_chain(series)
        assert chain.order == 1
        with pytest.raises(DegenerateSpectrum):
            descend(chain, (0.0, 10.0))


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
        lengths = (1.0, 0.913, 0.847, 0.771, 0.706, 0.633, 0.571, 0.502)
        graph = QuantumGraph(
            vertices=(VertexSpec(0, "kirchhoff"),)
            + tuple(VertexSpec(i + 1, "dirichlet") for i in range(len(lengths))),
            bonds=tuple(BondSpec((0, i + 1), L) for i, L in enumerate(lengths)),
        )
        chain = build_chain(secular_series(graph))
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
            raise solver.DegenerateEndpoint("zero on the climb")
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
        with pytest.raises(solver.DegenerateEndpoint):
            solver._floor_escape(series, start, start)

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
