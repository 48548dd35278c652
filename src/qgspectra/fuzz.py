"""Random series generation for fuzzing the solver against the oracle."""

from __future__ import annotations

import math

import numpy as np

from .series import SpectralSeries, canonicalize


def random_series(
    rng: np.random.Generator,
    *,
    max_terms: int = 5,
    amp_sum_range: tuple[float, float] = (1.0, 3.0),
) -> SpectralSeries:
    """Draw a canonical series with a prescribed term-amplitude budget.

    The leading action is uniform in [0.6, 2.5) and term actions are
    uniform ratios of it in [0.1, 0.95); amplitudes are rescaled so their
    sum is uniform in ``amp_sum_range`` (typically above 1, so the instance
    is not regular at level 0), phases are uniform.
    """
    s0 = float(rng.uniform(0.6, 2.5))
    n = int(rng.integers(1, max_terms + 1))
    ratios = rng.uniform(0.1, 0.95, size=n)
    raw_amps = rng.uniform(0.2, 1.0, size=n)
    target = rng.uniform(*amp_sum_range)
    amps = raw_amps * (target / raw_amps.sum())
    phases = rng.uniform(0.0, 2.0 * math.pi, size=n)
    terms = [(s0 * r, a, p) for r, a, p in zip(ratios, amps, phases)]
    phi0 = float(rng.uniform(0.0, 2.0 * math.pi))
    return canonicalize(s0, phi0, terms)


def standard_window(series: SpectralSeries, half_periods: int = 50) -> tuple[float, float]:
    """Window [0, half_periods * pi / s0]: a fixed number of leading half-periods."""
    return (0.0, half_periods * math.pi / series.leading_action)
