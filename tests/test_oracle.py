"""Dense-scan oracle and solver diffing."""

import math

import numpy as np
import pytest

from qgspectra import EmptyWindow, SizeCapExceeded, canonicalize, scan_roots, verify_spectrum
from qgspectra.fuzz import random_series, standard_window
from qgspectra.series import evaluate


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

    def test_oversampling_beyond_float_range_is_over_the_cap(self):
        with pytest.raises(SizeCapExceeded, match="above the cap"):
            scan_roots(canonicalize(1.0, 0.0), (0.0, 10.0), 10**400)

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

    def test_regular_series_clean(self):
        series = canonicalize(1.3, 0.9, [(0.8, 0.5, 2.0), (0.2, 0.3, 0.7)])
        report = verify_spectrum(series, (0.0, 40.0))
        assert report.clean
        assert report.matched > 10

    @pytest.mark.parametrize(
        "window, error",
        [((-1.0, 1e20), ValueError), ((0.0, math.inf), ValueError), ((5.0, 5.0), EmptyWindow)],
        ids=["negative", "infinite", "empty"],
    )
    def test_invalid_window_raises_before_the_grid_cap(self, window, error):
        # Each of these windows raises what the descent raises for it, not the
        # scan grid's cap, although its grid would be over the cap.
        with pytest.raises(error):
            verify_spectrum(canonicalize(1.0, 0.0), window, oversampling=10**8)

    def test_random_batch_clean(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            series = random_series(rng)
            report = verify_spectrum(series, standard_window(series, 30))
            assert report.clean, (report.missing, report.spurious)
            assert report.max_deviation <= 1e-8
