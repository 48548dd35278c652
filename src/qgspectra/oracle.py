"""Independent checks of the descent solver: eigenphase counts and a dense scan.

A graph is checked through its unitary bond map U(k) = D(k) Sigma.  Every
eigenphase of U rises with k and their sum rises as 2 S0 k, so the number
of roots in (a, b] is (2 S0 (b - a) + W(a) - W(b)) / 2 pi, with W the sum
of the eigenphases wrapped into [0, 2 pi) (Kottos and Smilansky, Ann.
Phys. 274, 76 (1999)).  The solver's roots cut the window into cells, one
root each, and each cell is counted from two eigendecompositions: no grid,
no pairing tolerance, and none of the secular series' construction.  The
count starts at ``POSITIVE_FLOOR``, where an eigenphase that sits at 0 for
k = 0 has already risen clear of rounding.

A bare series has no Sigma.  Its scan samples the series far above its
fastest oscillation (the leading action sets the highest frequency) and
bisects every sign-change interval.  It shares the series evaluator, the
window check, the grid cap and the floor climb off k = 0 with the solver,
and none of the descent: no chain, no separators and no Taylor model, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, SizeCapExceeded, ValidationError
from .graphs import QuantumGraph, secular_series, transfer_matrix
from .series import DEFAULT_MARGIN, SpectralSeries, evaluate_array, is_finite_real
from .solver import (
    MAX_GRID_CELLS,
    POSITIVE_FLOOR,
    Spectrum,
    _checked_window,
    _floor_escape,
    build_chain,
    descend,
)

# An eigenphase count farther than this from an integer is a mismatch.  The
# distance is the count's rounding error, which grows with k as the phases
# S_b k lose digits: on the three-star 4e-15 on (0, 120], 3.0e-11 at
# k = 1e6, 4.3e-8 at 1e9, 4.0e-5 at 1e12 and 2.8e-4 at 1e13.
COUNT_TOL = 1e-3
# Matrices per batched eigenvalue call, which bounds its memory.
COUNT_BLOCK = 1024
# Solver and oracle roots closer than this are considered the same root.
PAIRING_TOL = 1e-7
# Oracle brackets are bisected to this width or, where the float spacing is
# wider (from k = 8192 on), to adjacent floats, which a further pass would
# not move.
SCAN_WIDTH = 1e-12
DEFAULT_OVERSAMPLING = 50


@dataclass(frozen=True)
class VerificationReport:
    """The solver's roots against the eigenphase count or the dense scan."""

    matched: int
    missing: tuple[float, ...]   # roots the check finds and the solver does not
    spurious: tuple[float, ...]  # solver roots the check does not confirm
    max_deviation: float

    @property
    def clean(self) -> bool:
        return not self.missing and not self.spurious


def _checked_oversampling(oversampling) -> int:
    """The oversampling as an int; raises ``ValidationError``, anchored at
    ``options.oversampling``, unless it is an integer >= 8 within float
    range (not a bool, and not a float such as 50.0)."""
    if not (isinstance(oversampling, numbers.Integral) and is_finite_real(oversampling) and oversampling >= 8):
        raise ValidationError(f"options.oversampling: oversampling must be an integer >= 8, got {oversampling!r}")
    return int(oversampling)


def _grid_cells(series: SpectralSeries, lo: float, hi: float, per_half_period: int) -> float:
    """Cells from ``lo`` to ``hi`` at ``per_half_period`` per half-period of
    the leading cosine.  The oversampling rule (:func:`_checked_oversampling`)
    applies to ``per_half_period``; ``MAX_GRID_CELLS`` cells or more raise
    ``SizeCapExceeded``."""
    per_half_period = _checked_oversampling(per_half_period)
    step = math.pi / (series.leading_action * per_half_period)
    if step:
        cells = (hi - lo) / step
    else:  # s0 * per_half_period overflowed
        cells = (hi - lo) / math.pi * series.leading_action * per_half_period
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
    least one final bracket width; when the padding reaches
    ``POSITIVE_FLOOR`` the grid starts at the solver's escape point off the
    systematic k = 0 zero, where the series is in float noise.  An exact
    0.0 reads as positive, as a noise-level edge does in the descent.  Sign
    changes are bisected to width ``SCAN_WIDTH`` or to adjacent floats, and
    the midpoints of the brackets that meet the window are returned,
    sorted.
    """
    k_lo, k_hi = _checked_window(window)
    _grid_cells(series, k_lo, k_hi, oversampling)
    lo = max(k_lo - SCAN_WIDTH * max(1.0, k_lo), POSITIVE_FLOOR)
    hi = k_hi + SCAN_WIDTH * max(1.0, k_hi)
    if lo == POSITIVE_FLOOR:
        try:
            lo = _floor_escape(series, lo, lo + 0.25 * math.pi / series.leading_action)
        except DegenerateSpectrum:
            pass
    if hi <= lo:
        return np.empty(0)
    ks = uniform_grid(series, lo, hi, oversampling)
    negative = evaluate_array(series, ks) < 0.0
    change = negative[:-1] != negative[1:]
    if not change.any():
        return np.empty(0)
    a = ks[:-1][change]
    b = ks[1:][change]
    a_negative = negative[:-1][change]
    while (active := b - a > np.maximum(SCAN_WIDTH, np.spacing(b))).any():
        mid = 0.5 * (a + b)
        go_left = active & ((evaluate_array(series, mid) < 0.0) == a_negative)
        go_right = active & ~go_left
        a = np.where(go_left, mid, a)
        b = np.where(go_right, mid, b)
    meets = (a <= k_hi) & (b >= k_lo)
    return 0.5 * (a[meets] + b[meets])


def _cell_counts(graph: QuantumGraph, edges: np.ndarray) -> np.ndarray:
    """Eigenphase count of the roots in each cell (edges[i], edges[i + 1]].

    The count is (2 S0 (b - a) + W(a) - W(b)) / 2 pi, with W the sum of the
    eigenphases of ``transfer_matrix`` wrapped into [0, 2 pi); it is an
    integer up to rounding, and multiple roots count with multiplicity.
    """
    sums = np.empty(edges.size)
    for start in range(0, edges.size, COUNT_BLOCK):
        eigenvalues = np.linalg.eigvals(transfer_matrix(graph, edges[start:start + COUNT_BLOCK]))
        sums[start:start + COUNT_BLOCK] = np.sum(np.angle(eigenvalues) % (2 * math.pi), axis=-1)
    s0 = math.fsum(b.action for b in graph.bonds)
    return (2 * s0 * np.diff(edges) + sums[:-1] - sums[1:]) / (2 * math.pi)


def _count_diff(graph: QuantumGraph, spectrum: Spectrum, k_lo: float, k_hi: float) -> VerificationReport:
    """The solver's roots against one eigenphase count per cell.

    The cells are cut at the midpoints between consecutive roots; the outer
    edges are ``k_lo``, raised to ``POSITIVE_FLOOR``, and ``k_hi``, widened
    to cover the first and last certified intervals.  Every eigenphase of U
    rises with k, so one that sits at 0 for k = 0 is about S0 * 1e-9 above
    0 at the floor, far clear of the rounding that would wrap it.  A cell
    holds one solver root, or none when the solver found none.  A root
    whose cell counts 0 is spurious; each root counted beyond the cell's
    own adds a missing entry, a wavenumber spaced evenly inside the cell; a
    count farther than ``COUNT_TOL`` from an integer confirms nothing, so
    its cell's root is spurious and its midpoint missing.
    """
    ks = spectrum.wavenumbers
    lo = min(max(k_lo, POSITIVE_FLOOR), k_hi)
    edges = np.concatenate(([lo], 0.5 * (ks[1:] + ks[:-1]), [k_hi]))
    if ks.size:
        edges[0] = min(edges[0], ks[0] - spectrum.entries[0].enclosure)
        edges[-1] = max(edges[-1], ks[-1] + spectrum.entries[-1].enclosure)
    counts = _cell_counts(graph, edges)
    whole = np.rint(counts)
    deviation = np.abs(counts - whole)
    held = min(ks.size, 1)
    missing: list[float] = []
    spurious: list[float] = []
    for i in np.flatnonzero((whole != held) | (deviation > COUNT_TOL)).tolist():
        a, b, n = float(edges[i]), float(edges[i + 1]), int(whole[i])
        root = ks[i:i + held].tolist()
        if deviation[i] > COUNT_TOL:
            spurious += root
            missing.append(0.5 * (a + b))
        elif n < held:
            spurious += root
        else:
            missing += np.linspace(a, b, n - held + 2)[1:-1].tolist()
    return VerificationReport(
        matched=ks.size - len(spurious),
        missing=tuple(missing),
        spurious=tuple(spurious),
        max_deviation=float(deviation.max()),
    )


def verify_spectrum(
    model: QuantumGraph | SpectralSeries,
    window: tuple[float, float],
    *,
    margin: float = DEFAULT_MARGIN,
    oversampling: int = DEFAULT_OVERSAMPLING,
) -> VerificationReport:
    """Diff the descent solver against an independent check of one model.

    A graph's roots are checked by one eigenphase count per cell between
    consecutive solver roots (see ``_count_diff``); ``max_deviation`` is the
    largest distance of a count from its integer.  A series' roots are
    paired with the dense scan's, at ``oversampling`` points per
    half-period, greedily in sorted order within ``PAIRING_TOL``; any
    unpaired root on either side is reported, and ``max_deviation`` is the
    largest distance of a pair.  An empty diff certifies the solver output
    on this instance.  A graph builds no grid and ignores ``oversampling``;
    for a series, an oversampling other than an integer >= 8 and a scan
    grid over the cap are refused, quoting the window as given, before the
    descent runs.
    """
    k_lo, k_hi = _checked_window(window)
    if isinstance(model, QuantumGraph):
        spectrum = descend(build_chain(secular_series(model), margin), window)
        return _count_diff(model, spectrum, k_lo, k_hi)
    _grid_cells(model, k_lo, k_hi, oversampling)
    spectrum = descend(build_chain(model, margin), window)
    solver_ks = spectrum.wavenumbers
    oracle_ks = scan_roots(model, window, oversampling)

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
        max_deviation=float(max_dev),
    )
