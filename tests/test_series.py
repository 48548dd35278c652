"""Canonical series algebra: construction, evaluation, derivative chain."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgspectra import (
    ValidationError,
    build_chain,
    canonicalize,
    derivative_series,
    descend,
    evaluate_array,
    regularization_order,
    scan_roots,
    secular_series,
)
from qgspectra import series as series_module
from qgspectra.fuzz import random_series, standard_window
from qgspectra.series import (
    EVAL_BLOCK,
    MERGE_TOL,
    BondTerms,
    SpectralSeries,
    TrigTerm,
    regularity_sum,
    taylor_array,
)
from qgspectra.solver import DescentChain

from conftest import (
    ALL_GRAPHS,
    STAR_LENGTHS,
    dirichlet_star,
    evaluate,
    make_bond_dd,
    make_star3,
    make_triangle_delta,
    make_wheel5,
)

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


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
        with pytest.raises(ValidationError, match="not strictly below the leading action"):
            canonicalize(1.0, 0.0, [(1.2, 0.1, 0.0)])
        with pytest.raises(ValidationError, match="not strictly below the leading action"):
            canonicalize(1.0, 0.0, [(1.0, 0.1, 0.0)])

    def test_nonpositive_leading_action_rejected(self):
        with pytest.raises(ValidationError, match="leading action must be > 0"):
            canonicalize(0.0, 0.0)
        with pytest.raises(ValidationError, match="leading action must be > 0"):
            canonicalize(-2.0, 0.0)

    def test_negative_action_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(1.0, 0.0, [(-0.1, 0.5, 0.0)])

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_non_finite_leading_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="leading phase must be finite"):
            canonicalize(1.0, phase)

    @pytest.mark.parametrize("term", [(math.nan, 0.5, 0.0), (0.5, math.inf, 0.0), (0.5, 0.5, -math.inf)])
    def test_non_finite_term_field_rejected(self, term):
        with pytest.raises(ValueError, match="has a non-finite field"):
            canonicalize(1.0, 0.0, [term])

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

    def test_opposite_phases_cancel(self):
        # Same action, phases pi apart: the phasors cancel and no term is left.
        s = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0), (0.5, -0.3, 0.0)])
        assert s.terms == ()

    def test_accepts_trig_terms(self):
        s = canonicalize(1.0, 0.0, [TrigTerm(0.5, 0.4, 1.0)])
        assert s.terms == (TrigTerm(0.5, 0.4, 1.0),)

    @pytest.mark.parametrize("phases", [(3.0, 0.5), (0.5, 3.0)])
    def test_near_equal_actions_merge_as_phasors(self, phases):
        # Actions 1e-13 apart share a group: one cosine at the first action,
        # whatever the phases, with the values of the two-term sum.
        terms = [TrigTerm(1.0, 0.3, phases[0]), TrigTerm(1.0 + 1e-13, 0.2, phases[1])]
        s = canonicalize(2.0, 0.0, terms)
        assert len(s.terms) == 1 and s.terms[0].action == 1.0
        ks = np.linspace(0.0, 50.0, 201)
        raw = SpectralSeries(2.0, 0.0, tuple(terms))
        # The second term moves by 1e-13 in action: by 0.2e-13 k in value.
        assert np.all(np.abs(evaluate_array(s, ks) - evaluate_array(raw, ks)) <= 2e-14 * (1 + ks))

    @pytest.mark.parametrize(
        "terms, merged",
        [
            ([(0.5, 0.8, 0.0), (0.5, -0.8, 0.0)], ()),
            ([(0.5, 0.6, 0.0), (0.5, 0.6, math.pi / 2)], ((0.6 * math.sqrt(2.0), math.pi / 4),)),
        ],
        ids=["cancel", "quarter-turn"],
    )
    def test_one_action_one_cosine(self, terms, merged):
        # Unmerged, each pair sums to 1.6 and the series needs one
        # derivative level; merged, it is regular at level 0.  The roots,
        # those of the same function, are the dense scan's of the pair.
        folded = ((x, abs(a), phi + math.pi * (a < 0)) for x, a, phi in terms)
        raw = SpectralSeries(1.0, 0.0, tuple(TrigTerm(*t) for t in folded))
        assert regularization_order(raw) == 1
        s = canonicalize(1.0, 0.0, terms)
        got = [(t.amplitude, t.phase) for t in s.terms]
        assert len(got) == len(merged) and np.allclose(got, merged, rtol=0, atol=1e-15)
        assert regularization_order(s) == 0
        window = (0.0, 60.0)
        roots = descend(build_chain(s), window).wavenumbers
        assert roots.size == 19
        assert np.max(np.abs(roots - scan_roots(raw, window))) <= 1e-9

    def test_amplitude_sum_beyond_float_range_rejected(self):
        for terms in ([(0.5, 1e308, 0.0), (0.6, 1e308, 0.0)], [(0.5, 1e308, 0.0)] * 2):
            with pytest.raises(ValueError, match="beyond float range"):
                canonicalize(1.0, 0.0, terms)


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
        # n! * c_n is level n of the derivative chain at the same point, on
        # the per-term kernel and on graph series' bond kernel alike.  A
        # graph's amplitudes sum to up to 33.5 (star8), which scales its
        # rounding.
        cases = [(series, ks, 1e-13) for series, ks in self.draws(43)]
        rng = np.random.default_rng(44)
        for graph in bond_graphs().values():
            series = secular_series(graph)
            ks = 100.0 - rng.uniform(0.0, 100.0, 500)  # on (0, 100]
            cases.append((series, ks, 1e-13 * (1.0 + regularity_sum(series))))
        for series, ks, tol in cases:
            rows = taylor_array(series, ks, self.ORDER)
            level = series
            for n in range(self.ORDER + 1):
                assert np.max(np.abs(math.factorial(n) * rows[n] - evaluate_array(level, ks))) <= tol
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

    @pytest.mark.parametrize("kernel", ["bonds", "per_term"])
    def test_memory_does_not_grow_with_points(self, kernel):
        # Net of its output, a call holds one block's arrays, at most
        # EVAL_BLOCK complex entries, whatever the number of points: no
        # temporary spans all points.  The 8-bond star's bond kernel reads
        # 256.0 KiB.  The per-term kernel's
        # row products and numpy's temporaries in np.outer and matmul come on
        # top: 330.8 KiB for these 53 terms.
        if kernel == "bonds":
            series, slack = secular_series(dirichlet_star(STAR_LENGTHS)), 1024
            assert series_module._by_bonds(series)
        else:
            series, slack = random_series(np.random.default_rng(4), max_terms=60), 96 * 1024
            assert series.bonds is None and len(series.terms) > 50
        window = standard_window(series, 100)
        peaks = []
        for n_points in (2_000, 20_000, 200_000):
            ks = np.linspace(*window, n_points)
            taylor_array(series, ks[:10], 17, 1)  # build the cached weights
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                rows = taylor_array(series, ks, 17, 1)
                peaks.append(tracemalloc.get_traced_memory()[1] - base - rows.nbytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) - min(peaks) <= 1024, peaks
        assert max(peaks) <= 16 * EVAL_BLOCK + slack, peaks


def bond_graphs():
    """The conftest graphs, the 6-, 7- and 8-bond Dirichlet stars and the wheel."""
    graphs = {name: make() for name, make in ALL_GRAPHS.items()}
    graphs.update({f"star{n}": dirichlet_star(STAR_LENGTHS[:n]) for n in (6, 7, 8)})
    graphs["wheel5"] = make_wheel5()
    return graphs


def hand_built_series():
    """Three bonds and six terms, a constant term (row 0) and one of
    amplitude 1.5e-14 among them, built from bond rows by hand."""
    bond_actions = np.array([1.0, 0.7, 0.4])
    rows = np.array([[0, 0, 0], [-1, 1, 1], [1, -1, 1], [1, 0, -1], [1, 1, -1], [1, 1, 0]])
    amps = [0.3, 1.5e-14, 0.4, 0.6, 0.2, 0.5]
    actions = (rows @ bond_actions).tolist()
    terms = tuple(TrigTerm(a, amp, 0.3 + j) for j, (a, amp) in enumerate(zip(actions, amps)))
    return SpectralSeries(2.1, 0.2, terms, BondTerms.from_rows(bond_actions, rows, actions))


class TestBondKernel:
    """Term phasors from bond phasors against one cosine and one sine per term."""

    FACTORIALS = np.array([math.factorial(n) for n in range(18)], dtype=float)[:, None]
    SCALES = (1e2, 1e4, 1e6, 1e9)

    @pytest.mark.parametrize("name", sorted(bond_graphs()) + ["hand_built"])
    def test_rows_match_the_per_term_kernel(self, name, monkeypatch):
        # The rows of every level m up to M + 1, odd and even, read off level
        # 0 on bond phasors (forced even where 2B >= J) and on term phasors,
        # agree with the per-term kernel's on the derived level, which drops
        # the constant term, within the certificate's rounding term
        # 4 eps (1 + sum a) (s0 |x| + J + 30) per n! c_n.
        monkeypatch.setattr(series_module, "_by_bonds", lambda series: series.bonds is not None)
        rng = np.random.default_rng(7)
        graphs = bond_graphs()
        series = secular_series(graphs[name]) if name in graphs else hand_built_series()
        plain = SpectralSeries(series.leading_action, series.leading_phase, series.terms)
        chain = build_chain(series)
        levels = DescentChain(series, chain.order + 1, chain.margin).levels
        assert len(levels) >= 2
        for m, level in enumerate(levels):
            per_term = SpectralSeries(level.leading_action, level.leading_phase, level.terms)
            for scale in self.SCALES:
                ks = scale + rng.uniform(0.0, 10.0, 40)
                bound = (
                    4 * EPS * (1.0 + regularity_sum(level))
                    * (series.leading_action * ks + len(series.terms) + 30.0)
                )
                for order in (17, 16, 0):
                    want = taylor_array(per_term, ks, order)
                    for source in (series, plain):
                        diff = np.abs(taylor_array(source, ks, order, level=m) - want)
                        diff *= self.FACTORIALS[: order + 1]
                        assert np.all(diff <= bound), (name, m, scale, order)

    def test_drift_row_at_every_level(self, monkeypatch):
        # Term actions 1e-9 off their bond sums, far more drift than rounding
        # leaves: at every level, odd and even, the drift row turns the value
        # onto the float actions up to (d x)**2 / 2, about 5e-13 here.
        monkeypatch.setattr(series_module, "_by_bonds", lambda series: series.bonds is not None)
        base = hand_built_series()
        terms = tuple(t._replace(action=t.action + 1e-9) for t in base.terms)
        bonds = BondTerms.from_rows(base.bonds.actions, base.bonds.rows, [t.action for t in terms])
        assert np.allclose(bonds.drift, 1e-9, rtol=1e-6)
        series = SpectralSeries(base.leading_action, base.leading_phase, terms, bonds)
        ks = np.linspace(100.0, 1000.0, 200)
        for m, level in enumerate(DescentChain(series, 3, 0.5).levels):
            per_term = SpectralSeries(level.leading_action, level.leading_phase, level.terms)
            diff = evaluate_array(series, ks, m) - evaluate_array(per_term, ks)
            assert np.max(np.abs(diff)) <= 1e-11, m

    @pytest.mark.parametrize("name", ["star6", "star7", "star8", "wheel5"])
    def test_phasors_at_40_digits(self, name):
        # Node j holds exp(-i kappa'_j k), kappa'_j = sum_b eps_jb S_b, within
        # eps (s0 |k| / 2 + 9B + 6), the bound taylor_array derives; the
        # drift d_j = kappa_j - kappa'_j is exact and at most 1.5 eps s0; and
        # the node turned by the value's first-order drift correction is
        # within eps (s0 |k| + 3B) of exp(i kappa_j k) with the float action.
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        series = secular_series(bond_graphs()[name])
        bonds, s0 = series.bonds, series.leading_action
        n_bonds = bonds.actions.size
        rng = np.random.default_rng(11)
        with mp.workdps(40):
            kappas = [mp.mpf(a) for a in series.arrays[0].tolist()]
            sums = [
                mp.fsum(e * mp.mpf(s) for e, s in zip(row, bonds.actions.tolist()))
                for row in bonds.rows.tolist()
            ]
            for kappa, bond_sum, drift in zip(kappas, sums, bonds.drift.tolist()):
                assert drift == float(kappa - bond_sum) and abs(drift) <= 1.5 * EPS * s0
            for scale in self.SCALES:
                ks = scale + rng.uniform(0.0, 10.0, 3)
                nodes = series_module._term_phasors(series, ks)[bonds.nodes]
                for k, phasors in zip(ks.tolist(), nodes.T.tolist()):
                    x = mp.mpf(k)
                    for kappa, bond_sum, drift, q in zip(kappas, sums, bonds.drift.tolist(), phasors):
                        q = mp.mpc(q)
                        assert abs(q - mp.expj(-bond_sum * x)) <= EPS * (s0 * k / 2 + 9 * n_bonds + 6)
                        turned = mp.conj(q) * (1 + 1j * mp.mpf(drift) * x)
                        bound = EPS * (s0 * k + 3 * n_bonds) + (drift * k) ** 2 / 2
                        assert abs(turned - mp.expj(kappa * x)) <= bound, (name, k)

    @pytest.mark.parametrize("make", [make_bond_dd, make_star3])
    def test_few_terms_stay_per_term(self, make, monkeypatch):
        # A series with 2B >= J (bond_dd: no terms; the three-star: 3 terms
        # on 3 bonds) never builds bond phasors, and solves bit for bit as
        # the same series without bond rows.
        series = secular_series(make())
        assert series.bonds is not None and not series_module._by_bonds(series)
        plain = SpectralSeries(series.leading_action, series.leading_phase, series.terms)
        want = descend(build_chain(plain), (0.0, 60.0))

        def refuse(*args):
            raise AssertionError("bond phasors built for a series with 2B >= J")

        monkeypatch.setattr(series_module, "_term_phasors", refuse)
        assert descend(build_chain(series), (0.0, 60.0)).entries == want.entries
        raw = random_series(np.random.default_rng(3), max_terms=40)
        assert raw.bonds is None and len(raw.terms) > 6
        descend(build_chain(raw), standard_window(raw, 30))

    def test_weights_do_not_depend_on_request_order(self):
        # The turned-weight table grows on demand.  Requests from the top
        # level down, as the descent makes them, build it once; requests by
        # rising highest power make it grow one row at a time.  Every
        # (level, order) gives the same rows bit for bit either way.
        graph = dirichlet_star(STAR_LENGTHS)
        assert len(graph.bonds) == 8
        top_down, bottom_up = secular_series(graph), secular_series(graph)
        assert series_module._by_bonds(top_down)
        pairs = [(level, order) for level in range(8) for order in (0, 1, 16, 17)]
        ks = np.linspace(0.5, 99.5, 37)
        want = {pair: taylor_array(top_down, ks, pair[1], pair[0]) for pair in reversed(pairs)}
        for level, order in sorted(pairs, key=lambda pair: (sum(pair), pair)):
            got = taylor_array(bottom_up, ks, order, level)
            assert got.tobytes() == want[level, order].tobytes(), (level, order)
            weights = (top_down._bond_weights[level, order], bottom_up._bond_weights[level, order])
            assert weights[0].tobytes() == weights[1].tobytes(), (level, order)

    def test_many_terms_take_bond_phasors(self):
        series = secular_series(dirichlet_star(STAR_LENGTHS[:6]))
        assert len(series.terms) > 2 * series.bonds.actions.size
        assert series_module._by_bonds(series)

    @pytest.mark.parametrize(
        "make, size, n_layers, digest",
        [
            (make_wheel5, 186, 8, "1731e50b8ac3ba45"),
            (make_triangle_delta, 7, 3, "14b8fa4a6b80534f"),
            (lambda: dirichlet_star(STAR_LENGTHS), 90, 3, "41ab1f02fd77ba1d"),
        ],
        ids=["wheel5", "triangle_delta", "star8"],
    )
    def test_plan_is_pinned(self, make, size, n_layers, digest):
        # The kernel's rounding follows the plan's node order, so a changed
        # plan moves spectra in their last bits.  Wheel5's plan holds nodes
        # that are no term's, added as parents only.
        bonds = secular_series(make()).bonds
        assert (len(bonds.parents), len(bonds.layers)) == (size, n_layers)
        plan = np.concatenate([bonds.nodes, bonds.parents, bonds.factors, np.ravel(bonds.layers)])
        assert hashlib.sha256(plan.astype(np.int64).tobytes()).hexdigest()[:16] == digest


class TestDerivative:
    def test_matches_the_term_by_term_form(self):
        # The array form keeps and moves every term exactly as the term by
        # term form it replaced.
        rng = np.random.default_rng(5)
        for _ in range(50):
            series = random_series(rng, max_terms=30)
            for _ in range(3):
                s0, half = series.leading_action, 0.5 * math.pi
                want = tuple(
                    TrigTerm(t.action, t.amplitude * (t.action / s0), series_module._wrap_phase(t.phase + half))
                    for t in series.terms
                    if t.amplitude * (t.action / s0) > 0.0
                )
                series = derivative_series(series)
                assert series.terms == want
                assert np.array_equal(series.arrays, np.array(want, dtype=float).reshape(-1, 3).T)

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


@st.composite
def pooled_series(draw, max_terms=6):
    """Raw series whose term actions come from at most three values, so
    that several terms share an action; the values lie at least s0 / 100
    apart."""
    s0 = draw(st.floats(0.3, 4.0))
    pool = draw(st.lists(st.integers(0, 96), min_size=1, max_size=3, unique=True))
    terms = [
        (draw(st.sampled_from(pool)) / 100 * s0, draw(st.floats(-2.0, 2.0)), draw(st.floats(-10.0, 10.0)))
        for _ in range(draw(st.integers(0, max_terms)))
    ]
    return s0, draw(st.floats(-10.0, 10.0)), terms


@given(pooled_series())
def test_one_cosine_per_action(raw):
    actions = [t.action for t in canonicalize(*raw).terms]
    assert all(b - a > MERGE_TOL for a, b in zip(actions, actions[1:]))


@given(pooled_series(), st.floats(0.0, 50.0))
def test_merging_keeps_values(raw, k):
    s0, phi0, terms = raw
    total = math.cos(s0 * k + phi0) - math.fsum(a * math.cos(s * k + p) for s, a, p in terms)
    bound = 1e-12 * (1.0 + math.fsum(abs(a) for _, a, _ in terms))
    assert abs(evaluate(canonicalize(*raw), k) - total) <= bound


@given(pooled_series())
def test_merging_never_raises_the_term_sum(raw):
    # Up to rounding: a merged amplitude is its group's rounded phasor sum,
    # whose cosines, sines and products each err by about an ulp.
    assert regularity_sum(canonicalize(*raw)) <= math.fsum(abs(t[1]) for t in raw[2]) * (1 + 8 * EPS)


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
