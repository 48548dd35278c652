"""Brute-force verification: dense-scan root finding and solver diffing.

The scan samples the series far above its fastest oscillation (the leading
action sets the highest frequency) and bisects every sign-change interval.
It shares nothing with the descent machinery except the series evaluator,
so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEndpoint, EmptyWindow
from .series import DEFAULT_MARGIN, SpectralSeries, evaluate_array
from .solver import (
    EDGE_SLACK_REL,
    POSITIVE_FLOOR,
    _floor_escape,
    build_chain,
    descend,
)

# Solver and oracle roots closer than this are considered the same root.
PAIRING_TOL = 1e-7
# Oracle brackets are bisected to this absolute width.
SCAN_WIDTH = 1e-12
DEFAULT_OVERSAMPLING = 50


@dataclass(frozen=True)
class VerificationReport:
    """Pairing statistics between descent roots and dense-scan roots."""

    matched: int
    missing: tuple[float, ...]   # found only by the dense scan
    spurious: tuple[float, ...]  # found only by the solver
    max_deviation: float

    @property
    def clean(self) -> bool:
        return not self.missing and not self.spurious


def scan_roots(
    series: SpectralSeries,
    window: tuple[float, float],
    oversampling: int = DEFAULT_OVERSAMPLING,
) -> np.ndarray:
    """All roots in the window, by dense sampling plus bisection.

    The grid step is pi/(leading_action * oversampling): ``oversampling``
    points per half-period of the fastest cosine.  Sign changes are
    bisected to width ``SCAN_WIDTH`` and midpoints returned, sorted.
    """
    if int(oversampling) != oversampling or oversampling < 8:
        raise ValueError(f"oversampling must be an integer >= 8, got {oversampling!r}")
    k_lo, k_hi = float(window[0]), float(window[1])
    if not k_hi > k_lo:
        raise EmptyWindow(f"window [{k_lo!r}, {k_hi!r}] contains no interval")

    slack = EDGE_SLACK_REL * max(1.0, abs(k_lo), abs(k_hi))
    lo = max(k_lo - slack, POSITIVE_FLOOR)
    hi = k_hi + slack
    if lo <= POSITIVE_FLOOR:
        # Same origin handling as the solver: skip the region where the
        # systematic k = 0 zero drowns the series in float noise.
        try:
            lo = _floor_escape(series, lo, lo + 0.25 * math.pi / series.leading_action)
        except DegenerateEndpoint:
            pass
    if hi <= lo:
        return np.empty(0)
    step = math.pi / (series.leading_action * oversampling)
    n = max(1, math.ceil((hi - lo) / step))
    ks = np.linspace(lo, hi, n + 1)
    f = evaluate_array(series, ks)

    # A grid point landing exactly on a root would break the sign test.
    exact = f == 0.0
    if exact.any():
        ks = ks.copy()
        ks[exact] += (hi - lo) / n * 1e-9
        f = np.where(exact, evaluate_array(series, ks), f)

    s = np.sign(f)
    change = s[:-1] != s[1:]
    if not change.any():
        return np.empty(0)
    a = ks[:-1][change]
    b = ks[1:][change]
    sa = s[:-1][change]
    for _ in range(200):
        active = (b - a) > SCAN_WIDTH
        if not active.any():
            break
        mid = 0.5 * (a + b)
        fm = evaluate_array(series, mid)
        go_left = active & (np.sign(fm) == sa)
        go_right = active & ~go_left
        a = np.where(go_left, mid, a)
        b = np.where(go_right, mid, b)
    return 0.5 * (a + b)


def verify_spectrum(
    series: SpectralSeries,
    window: tuple[float, float],
    *,
    margin: float = DEFAULT_MARGIN,
    oversampling: int = DEFAULT_OVERSAMPLING,
) -> VerificationReport:
    """Diff the descent solver against the dense scan on one series.

    Roots are paired greedily in sorted order within ``PAIRING_TOL``; any
    unpaired root on either side is reported.  An empty diff certifies the
    solver output on this instance.
    """
    spectrum = descend(build_chain(series, margin), window)
    solver_ks = spectrum.wavenumbers
    oracle_ks = scan_roots(series, window, oversampling)

    matched = 0
    max_dev = 0.0
    missing: list[float] = []
    spurious: list[float] = []
    i = j = 0
    while i < len(solver_ks) and j < len(oracle_ks):
        d = solver_ks[i] - oracle_ks[j]
        if abs(d) <= PAIRING_TOL:
            matched += 1
            max_dev = max(max_dev, abs(d))
            i += 1
            j += 1
        elif d > 0:
            missing.append(float(oracle_ks[j]))
            j += 1
        else:
            spurious.append(float(solver_ks[i]))
            i += 1
    spurious.extend(float(x) for x in solver_ks[i:])
    missing.extend(float(x) for x in oracle_ks[j:])
    return VerificationReport(
        matched=matched,
        missing=tuple(missing),
        spurious=tuple(spurious),
        max_deviation=max_dev,
    )
