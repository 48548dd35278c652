"""Dense-scan oracle and solver diffing."""

import math

import numpy as np
import pytest

from qgspectra import (
    BondSpec,
    DegenerateSpectrum,
    QuantumGraph,
    SizeCapExceeded,
    ValidationError,
    VertexSpec,
    canonicalize,
    descend,
    evaluate_array,
    scan_roots,
    solve_graph,
    verify_spectrum,
)
from qgspectra.fuzz import random_series, standard_window
from qgspectra.oracle import _cell_counts
from qgspectra.solver import POSITIVE_FLOOR, Spectrum, SpectrumEntry

from conftest import SOLVABLE_GRAPHS, evaluate, make_star3


class TestScanRoots:
    def test_pure_cosine(self):
        roots = scan_roots(canonicalize(1.0, 0.0), (0.0, 10.0))
        assert np.allclose(roots, [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2], atol=1e-12)

    def test_sine_series(self):
        roots = scan_roots(canonicalize(1.0, 3 * math.pi / 2), (0.0, 10.0))
        assert np.allclose(roots, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-12)

    def test_irregular_first_root(self):
        series = canonicalize(1.0, 0.0, [(0.6, 1.2, 0.0)])
        assert evaluate(series, 3.0) < 0 < evaluate(series, 4.0)
        roots = scan_roots(series, (0.0, 10.0))
        assert roots[0] == pytest.approx(3.81, abs=5e-3)

    def test_oversampling_validation(self):
        with pytest.raises(ValueError):
            scan_roots(canonicalize(1.0, 0.0), (0.0, 10.0), oversampling=4)

    def test_oversampling_beyond_float_range_is_refused(self):
        # The oversampling rule refuses it before any grid is sized, as
        # load_config does for options.oversampling.
        with pytest.raises(ValidationError, match=r"^options\.oversampling: oversampling must be an integer >= 8"):
            scan_roots(canonicalize(1.0, 0.0), (0.0, 10.0), 10**400)

    @pytest.mark.parametrize("window", [(-1.0, 5.0), (math.nan, 1.0)], ids=["negative", "nan"])
    def test_invalid_window_raises_value_error(self, window):
        # As the descent does for the same windows.
        with pytest.raises(ValueError):
            scan_roots(canonicalize(1.0, 0.0), window)

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # Near k = 1e4 the float spacing, 1.8e-12, is above SCAN_WIDTH:
        # cells of pi/50 halve to adjacent floats in 35 passes, where
        # bisecting on to the width ran all 200.
        import qgspectra.oracle as oracle_module

        calls = []

        def counted(series, ks, level=0):
            calls.append(np.size(ks))
            return evaluate_array(series, ks, level)

        monkeypatch.setattr(oracle_module, "evaluate_array", counted)
        series = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0)])
        roots = scan_roots(series, (1e4, 1e4 + 100.0))
        assert len(calls) <= 40
        assert roots.size == 32
        assert np.all(np.abs(evaluate_array(series, roots)) <= 1e-11)

    def test_only_brackets_meeting_the_window_are_returned(self):
        # The scan window is padded by 1e-12 * max(1, k), 1.57e-12 here, so
        # the root pi/2, 1.3e-12 beyond each window, is bracketed; its
        # bracket, at most 1e-12 wide, does not meet the window.
        series = canonicalize(1.0, 0.0)
        assert scan_roots(series, (0.0, math.pi / 2 - 1.3e-12)).size == 0
        assert scan_roots(series, (math.pi / 2 + 1.3e-12, 4.0)).size == 0
        assert scan_roots(series, (1.0, 2.0)).size == 1

    def test_grid_point_on_a_root_is_nudged(self, monkeypatch):
        # cos k - cos(k/2 + 1) is exactly 0.0 at k = 2.0, a point of this grid.
        import qgspectra.oracle as oracle_module

        series = canonicalize(1.0, 0.0, [(0.5, 1.0, 1.0)])
        assert evaluate_array(series, np.array([2.0]))[0] == 0.0
        monkeypatch.setattr(oracle_module, "uniform_grid", lambda *a: np.linspace(1.0, 3.0, 21))
        roots = scan_roots(series, (1.0, 3.0))
        assert roots.size == 1 and roots[0] == pytest.approx(2.0, abs=1e-12)

    def test_failed_floor_climb_scans_from_the_floor(self, monkeypatch):
        # cos k - 0.5 cos(k/2) is resolvable at the floor, where the scan
        # starts whether or not the climb succeeds.
        import qgspectra.oracle as oracle_module

        series = canonicalize(1.0, 0.0, [(0.5, 0.5, 0.0)])
        want = scan_roots(series, (0.0, 20.0))

        def degenerate(*args):
            raise DegenerateSpectrum("numerically zero")

        monkeypatch.setattr(oracle_module, "_floor_escape", degenerate)
        assert want.size == 6
        assert np.array_equal(scan_roots(series, (0.0, 20.0)), want)

    def test_window_below_the_floor_is_empty(self):
        series = canonicalize(1.0, 0.0, [(0.5, 0.5, 0.0)])
        assert scan_roots(series, (0.0, 1e-10)).size == 0

    def test_roots_are_roots(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            series = random_series(rng)
            roots = scan_roots(series, standard_window(series, 25))
            for r in roots:
                assert abs(evaluate(series, float(r))) <= 1e-10

    def test_doubling_oversampling_is_stable(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            series = random_series(rng)
            window = standard_window(series, 25)
            base = scan_roots(series, window, 50)
            double = scan_roots(series, window, 100)
            assert len(base) == len(double)
            if len(base):
                assert np.max(np.abs(base - double)) <= 1e-10

    def test_sorted_output(self):
        rng = np.random.default_rng(47)
        series = random_series(rng)
        roots = scan_roots(series, standard_window(series, 30))
        assert np.all(np.diff(roots) > 0)


class TestVerifySpectrum:
    def test_pure_cosine_clean(self):
        report = verify_spectrum(canonicalize(1.0, 0.0), (0.0, 10.0))
        assert report.matched == 3
        assert report.clean
        assert report.missing == ()
        assert report.spurious == ()
        assert report.max_deviation <= 1e-10

    @pytest.mark.parametrize("model", [canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0)]), make_star3()],
                             ids=["series", "graph"])
    def test_max_deviation_is_a_float(self, model):
        # A numpy scalar in one of the two reports would make the type of a
        # field depend on the model.
        assert type(verify_spectrum(model, (0.0, 10.0)).max_deviation) is float

    def test_regular_series_clean(self):
        series = canonicalize(1.3, 0.9, [(0.8, 0.5, 2.0), (0.2, 0.3, 0.7)])
        report = verify_spectrum(series, (0.0, 40.0))
        assert report.clean
        assert report.matched > 10

    @pytest.mark.parametrize(
        "window, match",
        [
            ((-1.0, 1e20), "nonnegative wavenumber"),
            ((0.0, math.inf), "window bounds must be finite"),
            ((5.0, 5.0), "contains no interval"),
        ],
        ids=["negative", "infinite", "empty"],
    )
    def test_invalid_window_raises_before_the_grid_cap(self, window, match):
        # Each of these windows raises what the descent raises for it, not the
        # scan grid's cap, although its grid would be over the cap.  The cap's
        # SizeCapExceeded is a ValidationError too, so each window is told
        # apart by its message.
        with pytest.raises(ValidationError, match=match):
            verify_spectrum(canonicalize(1.0, 0.0), window, oversampling=10**8)

    def test_bad_oversampling_is_refused_before_the_descent(self, monkeypatch):
        import qgspectra.oracle as oracle_module

        def refused(chain, window):
            raise AssertionError("verify_spectrum descended before checking its oversampling")

        monkeypatch.setattr(oracle_module, "descend", refused)
        series = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0)])
        for oversampling in (4, 8.5):
            with pytest.raises(ValueError, match="oversampling must be an integer >= 8"):
                verify_spectrum(series, (0.0, 1e4), oversampling=oversampling)

    def test_random_batch_clean(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            series = random_series(rng)
            report = verify_spectrum(series, standard_window(series, 30))
            assert report.clean, (report.missing, report.spurious)
            assert report.max_deviation <= 1e-8


def batch_star() -> QuantumGraph:
    """The README three-star with a delta vertex and a bond potential, as in
    the CLI benchmark configs."""
    return QuantumGraph(
        vertices=(
            VertexSpec(0, "kirchhoff"),
            VertexSpec(1, "dirichlet"),
            VertexSpec(2, "scaling_delta", 1.3),
            VertexSpec(3, "dirichlet"),
        ),
        bonds=(BondSpec((0, 1), 1.0), BondSpec((0, 2), 0.71, 0.25), BondSpec((0, 3), 0.43)),
    )


def planted_descend(monkeypatch, change):
    """Make ``verify_spectrum`` see the solver's entries passed through
    ``change``, reindexed."""
    import qgspectra.oracle as oracle_module

    def faulty(chain, window):
        entries = change(list(descend(chain, window).entries))
        return Spectrum(entries=tuple(SpectrumEntry(i, *e[1:]) for i, e in enumerate(entries, 1)))

    monkeypatch.setattr(oracle_module, "descend", faulty)


class TestSeriesPairing:
    """Faults planted in the descent of cos k - 1.2 cos 0.6k over (0, 100],
    which has 19 roots, against the scan's pairing."""

    SERIES = canonicalize(1.0, 0.0, [(0.6, 1.2, 0.0)])  # terms are subtracted
    WINDOW = (0.0, 100.0)

    def scan(self):
        roots = scan_roots(self.SERIES, self.WINDOW)
        assert roots.size == 19
        return roots

    def test_dropped_root_is_missing(self, monkeypatch):
        roots = self.scan()
        planted_descend(monkeypatch, lambda entries: entries[:9] + entries[10:])
        report = verify_spectrum(self.SERIES, self.WINDOW)
        assert report.missing == (roots[9],)
        assert report.spurious == ()
        assert report.matched == 18

    def test_inserted_root_is_spurious(self, monkeypatch):
        roots = self.scan()
        extra = 0.5 * (roots[9] + roots[10])
        planted_descend(
            monkeypatch, lambda entries: entries[:10] + [entries[9]._replace(wavenumber=extra)] + entries[10:]
        )
        report = verify_spectrum(self.SERIES, self.WINDOW)
        assert report.spurious == (extra,)
        assert report.missing == ()
        assert report.matched == 19

    def test_shifted_root_is_spurious_and_the_true_one_missing(self, monkeypatch):
        roots = self.scan()

        def shift(entries):
            return entries[:9] + [entries[9]._replace(wavenumber=entries[9].wavenumber + 1e-6)] + entries[10:]

        planted_descend(monkeypatch, shift)
        report = verify_spectrum(self.SERIES, self.WINDOW)
        (spurious,) = report.spurious
        assert spurious - roots[9] == pytest.approx(1e-6, abs=1e-9)
        assert report.missing == (roots[9],)
        assert report.matched == 18


class TestEigenphaseCount:
    @pytest.mark.parametrize("name", sorted(SOLVABLE_GRAPHS))
    def test_clean_on_solvable_graphs(self, name):
        graph = SOLVABLE_GRAPHS[name]()
        report = verify_spectrum(graph, (0.0, 120.0))
        assert report.clean, (report.missing, report.spurious)
        assert report.matched == len(solve_graph(graph, (0.0, 120.0))) > 30
        assert report.max_deviation <= 1e-12

    def test_clean_on_the_batch_star(self):
        # The scan needs 1000 points per half-period on this window; the
        # count needs no grid.
        report = verify_spectrum(batch_star(), (0.0, 2500.0))
        assert report.clean, (report.missing, report.spurious)
        assert report.matched == len(solve_graph(batch_star(), (0.0, 2500.0))) > 1500
        assert report.max_deviation <= 1e-11

    @pytest.mark.parametrize("window, roots, deviation", [
        ((1e9, 1e9 + 20.0), 13, 1e-6),
        ((1e12, 1e12 + 50.0), 34, 1e-4),
    ], ids=["1e9", "1e12"])
    def test_high_k_windows(self, window, roots, deviation):
        # The scan's midpoints are half a float spacing off here, beyond
        # PAIRING_TOL: it reported 8/5/5 and 13/21/21 (matched, missing,
        # spurious) on these windows.
        report = verify_spectrum(make_star3(), window)
        assert report.clean, (report.missing, report.spurious)
        assert report.matched == roots
        assert 0.0 < report.max_deviation <= deviation

    def test_dropped_root_is_missing_in_its_cell(self, monkeypatch):
        ks = solve_graph(make_star3(), (0.0, 30.0)).wavenumbers
        planted_descend(monkeypatch, lambda entries: entries[:10] + entries[11:])
        report = verify_spectrum(make_star3(), (0.0, 30.0))
        assert not report.clean
        assert report.spurious == ()
        assert report.matched == len(ks) - 1
        (missing,) = report.missing
        # The dropped root's cell runs between the midpoints that the
        # remaining roots around it cut.
        rest = np.delete(ks, 10)
        edges = 0.5 * (rest[1:] + rest[:-1])
        assert np.searchsorted(edges, missing) == np.searchsorted(edges, ks[10])

    def test_added_root_is_spurious(self, monkeypatch):
        ks = solve_graph(make_star3(), (0.0, 30.0)).wavenumbers
        extra = 0.5 * (ks[10] + ks[11])

        def add(entries):
            return entries[:11] + [SpectrumEntry(0, extra, extra * extra, 1e-12)] + entries[11:]

        planted_descend(monkeypatch, add)
        report = verify_spectrum(make_star3(), (0.0, 30.0))
        assert report.missing == ()
        assert report.spurious == (extra,)
        assert report.matched == len(ks)

    def test_empty_spectrum_reports_every_root_missing(self, monkeypatch):
        ks = solve_graph(make_star3(), (0.0, 30.0)).wavenumbers
        planted_descend(monkeypatch, lambda entries: [])
        report = verify_spectrum(make_star3(), (0.0, 30.0))
        assert report.matched == 0 and report.spurious == ()
        assert len(report.missing) == len(ks)
        assert 0.0 < min(report.missing) and max(report.missing) < 30.0

    def test_count_off_an_integer_is_a_mismatch(self, monkeypatch):
        # At k = 1e12 the counts are off an integer by up to 4e-5; below a
        # tolerance of 1e-6 they confirm nothing.
        import qgspectra.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "COUNT_TOL", 1e-6)
        report = verify_spectrum(make_star3(), (1e12, 1e12 + 20.0))
        assert report.max_deviation > 1e-6
        assert 0 < len(report.spurious) == len(report.missing)
        assert report.matched + len(report.spurious) == 14

    def test_count_twice_the_tolerance_off_is_a_mismatch(self, monkeypatch):
        # One cell's count moved 2e-3, twice COUNT_TOL, off its integer
        # confirms nothing: its root is spurious and its midpoint missing.
        import qgspectra.oracle as oracle_module

        cell_counts = oracle_module._cell_counts

        def nudged(graph, edges):
            counts = cell_counts(graph, edges)
            counts[3] += 2e-3
            return counts

        monkeypatch.setattr(oracle_module, "_cell_counts", nudged)
        ks = solve_graph(make_star3(), (0.0, 20.0)).wavenumbers
        report = verify_spectrum(make_star3(), (0.0, 20.0))
        assert (report.matched, report.spurious) == (12, (ks[3],))
        assert report.missing == pytest.approx([0.25 * (ks[2] + 2 * ks[3] + ks[4])])
        assert report.max_deviation == pytest.approx(2e-3, rel=0.01)

    def test_window_from_zero_skips_the_zero_eigenphase(self):
        # Sigma has an eigenphase at 0, so a cell starting at k = 0 itself
        # counts the k = 0 zero or not by the sign of rounding: on the
        # three-star it counts 2 for one root.  verify starts at
        # POSITIVE_FLOOR instead, where every eigenphase has risen with k
        # and the one from 0 sits about S0 * 1e-9 above it, clear of rounding.
        graph = make_star3()
        ks = solve_graph(graph, (0.0, 10.0)).wavenumbers
        assert _cell_counts(graph, np.array([0.0, 0.5 * (ks[0] + ks[1])])) == pytest.approx([2.0])
        assert _cell_counts(graph, np.array([POSITIVE_FLOOR, 0.5 * (ks[0] + ks[1])])) == pytest.approx([1.0])
        report = verify_spectrum(graph, (0.0, 10.0))
        assert report.clean and report.matched == len(ks)

    def test_oversampling_is_ignored_for_graphs(self, monkeypatch):
        # A graph builds no scan grid, so a density whose grid would be over
        # the cap, or one the scan would refuse, changes nothing.
        import qgspectra.oracle as oracle_module

        expected = verify_spectrum(make_star3(), (0.0, 10.0))

        def no_grid(*args):
            raise AssertionError("a graph verify built a scan grid")

        monkeypatch.setattr(oracle_module, "_grid_cells", no_grid)
        monkeypatch.setattr(oracle_module, "scan_roots", no_grid)
        for oversampling in (10**8, 4):
            report = verify_spectrum(make_star3(), (0.0, 10.0), oversampling=oversampling)
            assert report.clean and report == expected
