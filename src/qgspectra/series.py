"""Finite cosine series with a dominant leading term, and their derivative algebra.

A series represents the almost-periodic function

    g(k) = cos(s0*k + phi0) - sum_j a_j * cos(s_j*k + phi_j)

where every term action ``s_j`` lies strictly below the leading action
``s0``.  The family is closed under (d/dk)/s0: each term amplitude shrinks
by the ratio ``s_j/s0`` and every phase advances by pi/2, so one
derivative level follows from the last by scaling and shifting the terms
in place.  Because all ratios are below one, repeated differentiation
eventually pushes the term sum below 1, after which the leading cosine
pins the sign of the series at its own extrema.  That decay is what the
spectral descent in :mod:`qgspectra.solver` relies on; the solver also
builds the chain of levels and finds its regularization order.

A series keeps its terms as a tuple and, built once on first use, as
arrays of actions, amplitudes and phases; :func:`evaluate_array` sums the
terms with one matrix product per block of points, and
:func:`taylor_array` gives the Taylor coefficients about each point from
the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import NonpositiveLeadingAction, TermActionExceedsLeading

TWO_PI = 2.0 * math.pi

# Actions (and phases, circularly) closer than this refer to the same term.
MERGE_TOL = 1e-12
# Merged amplitudes below this are dropped outright.
AMPLITUDE_FLOOR = 1e-14
# Default headroom below 1 required of a regular term sum.
DEFAULT_MARGIN = 1e-6
# Entries (terms x points) of one cosine block in evaluate_array; bounds its
# temporary memory whatever the number of points.
EVAL_BLOCK = 1 << 14


class TrigTerm(NamedTuple):
    """One subtracted cosine term: ``amplitude * cos(action*k + phase)``."""

    action: float
    amplitude: float
    phase: float


@dataclass(frozen=True)
class SpectralSeries:
    """Canonical cosine series.

    Instances should be built through :func:`canonicalize` (or by
    :func:`derivative_series`), which guarantees positive amplitudes,
    phases in [0, 2*pi), strictly sub-leading actions and action-sorted,
    duplicate-free terms.
    """

    leading_action: float
    leading_phase: float
    terms: tuple[TrigTerm, ...]

    @cached_property
    def arrays(self) -> np.ndarray:
        """Term actions, amplitudes and phases as the rows of a float array."""
        return np.array(self.terms, dtype=float).reshape(-1, 3).T.copy()


def _wrap_phase(phi: float) -> float:
    """Reduce a phase to [0, 2*pi)."""
    x = math.fmod(phi, TWO_PI)
    if x < 0.0:
        x += TWO_PI
    if x >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        x = 0.0
    return x


def canonicalize(
    leading_action: float,
    leading_phase: float,
    raw_terms: Iterable[tuple[float, float, float]] = (),
) -> SpectralSeries:
    """Build the canonical form of a series from raw term triples.

    Negative amplitudes are folded into a pi phase shift, phases are
    reduced mod 2*pi, terms sharing (action, phase) within ``MERGE_TOL``
    are merged by amplitude addition, merged amplitudes below
    ``AMPLITUDE_FLOOR`` are dropped, and the result is sorted by action.

    Raises ``NonpositiveLeadingAction`` or ``TermActionExceedsLeading``
    when the dominance structure is broken.
    """
    s0 = float(leading_action)
    if not math.isfinite(s0) or s0 <= 0.0:
        raise NonpositiveLeadingAction(f"leading action must be > 0, got {leading_action!r}")
    if not math.isfinite(leading_phase):
        raise ValueError(f"leading phase must be finite, got {leading_phase!r}")

    folded: list[tuple[float, float, float]] = []
    for action, amplitude, phase in raw_terms:
        action = float(action)
        amplitude = float(amplitude)
        phase = float(phase)
        if not (math.isfinite(action) and math.isfinite(amplitude) and math.isfinite(phase)):
            raise ValueError(f"term ({action!r}, {amplitude!r}, {phase!r}) has a non-finite field")
        if action < 0.0:
            raise ValueError(f"term action must be >= 0, got {action!r}")
        if action >= s0:
            raise TermActionExceedsLeading(
                f"term action {action!r} is not strictly below the leading action {s0!r}"
            )
        if amplitude == 0.0:
            continue
        if amplitude < 0.0:
            amplitude = -amplitude
            phase += math.pi
        folded.append((action, amplitude, _wrap_phase(phase)))

    folded.sort(key=lambda t: (t[0], t[2]))

    # Group by action, then merge circularly close phases within a group.
    merged: list[tuple[float, float, float]] = []
    i = 0
    while i < len(folded):
        j = i
        rep_action = folded[i][0]
        while j < len(folded) and folded[j][0] - rep_action <= MERGE_TOL:
            j += 1
        group = folded[i:j]

        clusters: list[list[tuple[float, float, float]]] = []
        for term in group:  # group is phase-sorted
            if clusters and term[2] - clusters[-1][0][2] <= MERGE_TOL:
                clusters[-1].append(term)
            else:
                clusters.append([term])
        # Phases just below 2*pi wrap around onto the first cluster.
        if len(clusters) > 1 and (clusters[0][0][2] + TWO_PI) - clusters[-1][0][2] <= MERGE_TOL:
            clusters[0].extend(clusters.pop())

        for cluster in clusters:
            amp = math.fsum(t[1] for t in cluster)
            if amp < AMPLITUDE_FLOOR:
                continue
            merged.append((cluster[0][0], amp, cluster[0][2]))
        i = j

    merged.sort(key=lambda t: (t[0], t[2]))
    return SpectralSeries(
        leading_action=s0,
        leading_phase=_wrap_phase(float(leading_phase)),
        terms=tuple(TrigTerm(*t) for t in merged),
    )


def evaluate(series: SpectralSeries, k: float) -> float:
    """Value of the series at wavenumber ``k``, compensated summation."""
    parts = [math.cos(series.leading_action * k + series.leading_phase)]
    parts.extend(-t.amplitude * math.cos(t.action * k + t.phase) for t in series.terms)
    return math.fsum(parts)


def evaluate_array(series: SpectralSeries, ks: np.ndarray) -> np.ndarray:
    """Vectorized series evaluation over an array of wavenumbers.

    Points go through in blocks of at most ``EVAL_BLOCK`` term-point
    entries (one point at least), so temporary memory does not grow with
    the number of points.
    """
    ks = np.asarray(ks, dtype=float)
    return taylor_array(series, ks, 0)[0].reshape(ks.shape)


def taylor_array(
    series: SpectralSeries, ks: np.ndarray, order: int, below: np.ndarray | None = None
) -> np.ndarray:
    """Taylor coefficients of the series about each point of ``ks``, flattened.

    Row n holds ``c_n = g^(n)(x) / (s0**n * n!)``, so that
    ``g(x + u/s0) = sum_n c_n * u**n`` up to a remainder of at most
    ``(1 + sum a) * |u|**(order+1) / (order+1)!``.  With ``r_j = s_j/s0``,
    even rows are ``+-(cos t0 - sum a_j r_j**n cos t_j) / n!`` and odd rows
    ``+-(sin t0 - sum a_j r_j**n sin t_j) / n!``, the signs following n mod
    4, so one cosine and one sine of each term angle give every row.  Row 0
    is the ``evaluate_array`` value, computed by the same product over the
    same ``EVAL_BLOCK`` blocks.

    With ``below``, one amplitude per term (``order`` >= 1), one more row
    holds ``sin t0 - sum below_j sin t_j`` from the same sines: the value of
    the series with these amplitudes whose angles trail these by a quarter
    period, as the level this one was differentiated from does.
    """
    x = np.asarray(ks, dtype=float).ravel()
    s0 = series.leading_action
    actions, amps, phases = series.arrays
    out = np.empty((order + 1 + (below is not None), x.size))
    c = out[: order + 1]
    # The leading angle is built in row 0, so a long array of points is
    # held once, not three times.
    np.multiply(s0, x, out=c[0])
    c[0] += series.leading_phase
    if order:
        n = np.arange(1, order + 1)
        weights = amps * (actions / s0) ** n[:, None]  # row n - 1 scales order n
        c[1::2] = np.sin(c[0])
        if below is not None:
            out[-1] = c[1]
    np.cos(c[0], out=c[0])
    if order:
        c[2::2] = c[0]
    step = max(1, EVAL_BLOCK // max(1, len(amps)))
    for start in range(0, x.size, step):
        block = slice(start, start + step)
        angles = np.outer(actions, x[block])
        angles += phases[:, None]
        cosines = np.cos(angles)
        c[0, block] -= amps @ cosines
        if order:
            c[2::2, block] -= weights[1::2] @ cosines
            np.sin(angles, out=angles)
            c[1::2, block] -= weights[0::2] @ angles
            if below is not None:
                out[-1, block] -= below @ angles
        del angles, cosines  # free this block's arrays before the next one's
    if order:
        # cos(t + n*pi/2) is -sin t, -cos t, +sin t, +cos t for n = 1, 2, 3, 4 mod 4.
        scale = np.where((n - 1) % 4 < 2, -1.0, 1.0) / np.cumprod(n.astype(float))
        c[1:] *= scale[:, None]
    return out


def derivative_series(series: SpectralSeries) -> SpectralSeries:
    """Next derivative level: d/dk followed by division by the leading action.

    Amplitudes scale by action/leading_action and every phase advances by
    pi/2.  Actions do not change, so no two terms can merge; terms whose
    amplitude falls below ``AMPLITUDE_FLOOR`` (the constant term at once)
    are dropped, and the result is again a canonical series one level up.
    """
    s0 = series.leading_action
    half = 0.5 * math.pi
    terms = []
    for t in series.terms:
        amplitude = t.amplitude * (t.action / s0)
        if amplitude >= AMPLITUDE_FLOOR:
            terms.append(TrigTerm(t.action, amplitude, _wrap_phase(t.phase + half)))
    return SpectralSeries(
        leading_action=s0,
        leading_phase=_wrap_phase(series.leading_phase + half),
        terms=tuple(terms),
    )


def regularity_sum(series: SpectralSeries) -> float:
    """Sum of term amplitudes; the series is regular iff this is below 1."""
    return math.fsum(t.amplitude for t in series.terms)
