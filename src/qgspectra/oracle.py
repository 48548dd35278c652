"""Brute-force verification: dense-scan root finding and solver diffing.

The scan samples the series far above its fastest oscillation (the leading
action sets the highest frequency) and bisects every sign-change interval.
It shares the series evaluator, the window check, the grid cap and the
floor climb off k = 0 with the solver, and none of the descent: no chain,
no separators and no Taylor model, so agreement between the two is
meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, SizeCapExceeded
from .series import DEFAULT_MARGIN, SpectralSeries, evaluate_array
from .solver import (
    MAX_GRID_CELLS,
    POSITIVE_FLOOR,
    _checked_window,
    _floor_escape,
    build_chain,
    descend,
)

# Solver and oracle roots closer than this are considered the same root.
PAIRING_TOL = 1e-7
# Oracle brackets are bisected to this width or, where the float spacing is
# wider (from k = 8192 on), to adjacent floats, which a further pass would
# not move.
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


def _grid_cells(series: SpectralSeries, lo: float, hi: float, per_half_period: int) -> float:
    """Cells from ``lo`` to ``hi`` at ``per_half_period`` per half-period of
    the leading cosine.  A ``per_half_period`` other than an integer >= 8
    raises ``ValueError``; ``MAX_GRID_CELLS`` cells or more raise
    ``SizeCapExceeded``."""
    if int(per_half_period) != per_half_period or per_half_period < 8:
        raise ValueError(f"oversampling must be an integer >= 8, got {per_half_period!r}")
    try:
        step = math.pi / (series.leading_action * per_half_period)
        if step:
            cells = (hi - lo) / step
        else:  # s0 * per_half_period overflowed
            cells = (hi - lo) / math.pi * series.leading_action * per_half_period
    except OverflowError:  # an int per_half_period beyond float range
        cells = math.inf
    if not cells < MAX_GRID_CELLS:
        raise SizeCapExceeded(
            f"window: [{lo!r}, {hi!r}] takes a grid of {cells:.3g} cells, above the cap of {MAX_GRID_CELLS}"
        )
    return cells


def uniform_grid(series: SpectralSeries, lo: float, hi: float, per_half_period: int) -> np.ndarray:
    """Grid from ``lo`` to ``hi`` with ``per_half_period`` points per
    half-period of the leading cosine, rounded up to whole cells, at least
    one.  A grid of ``MAX_GRID_CELLS`` cells or more raises
    ``SizeCapExceeded`` before it is built."""
    cells = _grid_cells(series, lo, hi, per_half_period)
    return np.linspace(lo, hi, max(1, math.ceil(cells)) + 1)


def scan_roots(
    series: SpectralSeries,
    window: tuple[float, float],
    oversampling: int = DEFAULT_OVERSAMPLING,
) -> np.ndarray:
    """All roots in the window, by dense sampling plus bisection.

    The window is checked as the descent checks it, and its grid against
    the cap, quoting the window as given.  The grid is ``uniform_grid``
    with ``oversampling`` points per half-period of the fastest cosine,
    over the window padded by ``SCAN_WIDTH * max(1, |k|)`` on each side, at
    least one final bracket width.  Sign changes are bisected to width
    ``SCAN_WIDTH`` or to adjacent floats, and the midpoints of the brackets
    that meet the window are returned, sorted.
    """
    k_lo, k_hi = _checked_window(window)
    _grid_cells(series, k_lo, k_hi, oversampling)
    lo = max(k_lo - SCAN_WIDTH * max(1.0, k_lo), POSITIVE_FLOOR)
    hi = k_hi + SCAN_WIDTH * max(1.0, k_hi)
    if lo <= POSITIVE_FLOOR:
        # Same origin handling as the solver: skip the region where the
        # systematic k = 0 zero drowns the series in float noise.
        try:
            lo = _floor_escape(series, lo, lo + 0.25 * math.pi / series.leading_action)
        except DegenerateSpectrum:
            pass
    if hi <= lo:
        return np.empty(0)
    ks = uniform_grid(series, lo, hi, oversampling)
    f = evaluate_array(series, ks)

    # A grid point landing exactly on a root would break the sign test.
    exact = f == 0.0
    if exact.any():
        ks = ks.copy()
        ks[exact] += (hi - lo) / (ks.size - 1) * 1e-9
        f = np.where(exact, evaluate_array(series, ks), f)

    s = np.sign(f)
    change = s[:-1] != s[1:]
    if not change.any():
        return np.empty(0)
    a = ks[:-1][change]
    b = ks[1:][change]
    sa = s[:-1][change]
    while (active := b - a > np.maximum(SCAN_WIDTH, np.spacing(b))).any():
        mid = 0.5 * (a + b)
        fm = evaluate_array(series, mid)
        go_left = active & (np.sign(fm) == sa)
        go_right = active & ~go_left
        a = np.where(go_left, mid, a)
        b = np.where(go_right, mid, b)
    meets = (a <= k_hi) & (b >= k_lo)
    return 0.5 * (a[meets] + b[meets])


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
    solver output on this instance.  An oversampling other than an integer
    >= 8 and a scan grid over the cap are refused, quoting the window as
    given, before the descent runs.
    """
    _grid_cells(series, *_checked_window(window), oversampling)
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
