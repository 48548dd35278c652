"""Bootstrap-and-descent root solver for canonical cosine series.

:func:`build_chain` differentiates (and renormalizes) the series until its
term sum drops below one; the number of steps is the regularization order
M.  At that regular level the extrema of the leading cosine are root
separators: the series sign there is pinned by the leading term, so every
separator cell brackets exactly one simple root.  Walking back down, the
roots of each level are the extrema of the level below and therefore
separate its roots.  One loop handles every level the same way: it reads
the series sign at each separator, and each cell whose ends differ in sign
yields one root.  Each sign-change bracket is shrunk by Newton steps on a
Taylor model of the series about the current point (the family is closed
under d/dk, so one cosine and one sine per term phasor give every
derivative there; a graph's term phasors are products of bond phasors,
one cosine and one sine per bond) that never leave the bracket, falling
back to bisection.  A root of level 0, the reported level, is certified
by one pair of sign probes of the series just around it.  A root of a
level above only separates the roots of the level below, so the model's
own signs either side of it, clear of the model's remainder and rounding,
certify it; the lanes the model leaves open take the probe pair.  Every
root is returned inside a bracket whose two ends have certified opposite
signs.

The chain is one series, its order M and its margin; no level drops a
term, so a solve reads every level off level 0 (``level`` of
:func:`taylor_array` and :func:`base_separators`).  A level above 0 is
the slope of the level below, so its model is the derivative of the level
below's model one order higher, and the model that closes a lane also
returns the level below's value at the root.  The level below reads its
sign at such a separator from that value when the value clears its error
bound by ``ENDPOINT_TOL``, and evaluates the series at every other
separator and at the edges.

Every level runs between the same two edges, the window padded by M + 1
leading cells.  A lower edge clamped at ``POSITIVE_FLOOR`` is climbed off
the systematic zero at k = 0 once, for level 0, to where the oracle's scan
starts.  That edge serves every level: level m + 1 is the slope of level m
over s0, so where level m has a zero of order p at k = 0, level m + 1 is
about p / (s0 k) times as large, and the climb stops within a quarter
leading cell (s0 k <= pi / 4).  Where level 0 clears ``ENDPOINT_TOL``,
every level above clears it by more.  The edges are arbitrary points: an
edge value at noise level counts as positive, since a wrong edge sign can
only change the roots of the edge cells, and each level spreads that at
most one cell further inward, inside the padding.  A level-0 root is
reported when its certified interval meets the window.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, NotRegular, SizeCapExceeded, ValidationError
from .graphs import QuantumGraph, secular_series
from .series import (
    DEFAULT_MARGIN,
    EVAL_BLOCK,
    SpectralSeries,
    _wrap_phase,
    derivative_series,
    evaluate_array,
    is_finite_real,
    taylor_array,
)

# Deepest derivative level build_chain tries before giving up.
MAX_ORDER = 100_000

# Roots are never reported below this wavenumber; padding is clamped here.
POSITIVE_FLOOR = 1e-9
# |g| at or below this at a separator signals a (near-)double root.
ENDPOINT_TOL = 1e-12
# Target bracket width, relative to max(1, |k|): refinement stops below it.
BRACKET_REL_WIDTH = 1e-13
# Degree N of the Taylor model that refinement steps on.  Its remainder at
# u = s0 * (k - x) is at most (1 + sum a) * |u|**17 / 17!: about 6e-12 *
# (1 + sum a) half a leading cell from x (|u| = pi/2), so the first model
# about a cell midpoint already pins most roots to the target width.
MODEL_ORDER = 16
# Newton steps on the Taylor polynomial per evaluation of the model, the
# first (from the model's centre, u = 0) in closed form.
MODEL_NEWTON_STEPS = 7
# Cap on the cells of a padded window's separator grid and of oracle.uniform_grid:
# the descent holds about 400 bytes per cell, so a solve stays near 4 GB.
MAX_GRID_CELLS = 10_000_000
# Points per Taylor model block.  Newton holds the model (N + 2 rows, the
# slope coefficients formed in place), the coefficients of p' (N) and the power
# table (N + 1): 3N + 3 floats a lane, and a dozen single rows besides.  At
# EVAL_BLOCK // (N + 6) = 744 lanes that is about 375 KiB, 516 bytes a lane,
# and a level of up to 1,488 roots takes 2 blocks (wide_window's hold 1,455 at most).
MODEL_BLOCK = EVAL_BLOCK // (MODEL_ORDER + 6)


@dataclass(frozen=True)
class DescentChain:
    """A series, its order M and the margin of its top level.

    Level m is level 0 with amplitudes ``a_j r_j**m`` and every phase m
    quarter periods on.  The descent reads each level off ``series``;
    ``levels`` builds them as series for readers that want one.  An order
    below the regularization order raises ``NotRegular`` from the top
    level's separator grid; an order that is not an integer >= 0, or a
    margin outside (0, 1), raises ``ValidationError``.
    """

    series: SpectralSeries
    order: int
    margin: float

    def __post_init__(self):
        if not (isinstance(self.order, numbers.Integral) and not isinstance(self.order, bool) and self.order >= 0):
            raise ValidationError(f"chain order must be an integer >= 0, got {self.order!r}")
        _checked_margin(self.margin)

    @cached_property
    def levels(self) -> tuple[SpectralSeries, ...]:
        """Levels 0..M as series, each the derivative series of the one below."""
        levels = [self.series]
        for _ in range(self.order):
            levels.append(derivative_series(levels[-1]))
        return tuple(levels)


class SpectrumEntry(NamedTuple):
    """One eigen-wavenumber: its 1-based index, k, k**2 and enclosure."""

    index: int
    wavenumber: float
    energy: float
    enclosure: float


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigen-wavenumbers with certified enclosures, indexed from 1."""

    entries: tuple[SpectrumEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.array([e.wavenumber for e in self.entries])

    @property
    def energies(self) -> np.ndarray:
        return np.array([e.energy for e in self.entries])


@dataclass(frozen=True)
class DescentTrace:
    """Solver internals for inspection: padded window and per-level roots."""

    padded_window: tuple[float, float]
    separators: np.ndarray
    level_roots: tuple[np.ndarray, ...]  # index m = 0..M


def build_chain(series: SpectralSeries, margin: float = DEFAULT_MARGIN) -> DescentChain:
    """The chain of the series up to its first regular level.

    The order is found from the amplitudes alone, multiplied by the action
    ratios once per level as :func:`derivative_series` does, so the top
    level's term sum is the one ``base_separators`` checks.  Termination is
    guaranteed by the strict action gap: every ratio action/leading_action
    is below 1, so amplitudes decay geometrically.  A gap so small that
    ``MAX_ORDER`` levels do not suffice raises ``NotRegular``.
    """
    margin = _checked_margin(margin)
    actions, amps, _ = series.arrays
    ratios = actions / series.leading_action
    order = 0
    while (total := math.fsum(amps.tolist())) > 1.0 - margin:
        if order >= MAX_ORDER:
            raise NotRegular(
                f"term sum {total:g} is still above {1.0 - margin:g} "
                f"after {MAX_ORDER} derivative levels; the action gap is too small"
            )
        amps = amps * ratios
        order += 1
    return DescentChain(series, order, margin)


def _checked_margin(margin) -> float:
    """The margin as a float; raises ``ValidationError``, anchored at
    ``options.margin``, unless it is a finite number in (0, 1)."""
    if not (is_finite_real(margin) and 0.0 < margin < 1.0):
        raise ValidationError(f"options.margin: margin must lie in (0, 1), got {margin!r}")
    return float(margin)


def regularization_order(series: SpectralSeries, margin: float = DEFAULT_MARGIN) -> int:
    """Smallest derivative level whose term sum is at most ``1 - margin``."""
    return build_chain(series, margin).order


def base_separators(
    series: SpectralSeries,
    lo: float,
    hi: float,
    margin: float = DEFAULT_MARGIN,
    level: int = 0,
) -> np.ndarray:
    """Extremal grid of the leading cosine of level ``level`` inside [lo, hi].

    At each grid point the leading cosine is +-1 while the terms sum to
    less than 1 - margin in magnitude, so the series sign alternates and
    consecutive grid points bracket exactly one root.  Level m is read off
    level 0 with the amplitudes and phase that :func:`derivative_series`
    gives it, so the grid is that of ``DescentChain.levels[m]``.  Requires
    the level to be regular at the given margin, itself in (0, 1) as
    :func:`build_chain` requires.  A grid of ``MAX_GRID_CELLS``
    cells or more raises ``SizeCapExceeded`` before anything is allocated.

    So does a window beyond float resolution, checked after the cap.  A
    grid point ``(q * pi - phi0) / s0`` takes three roundings of at most
    eps/2 relative and ``math.pi``'s error, below eps/4 relative (q itself
    is exact below 2**53, which holds wherever the check passes); the
    series reads its leading angle ``s0 * x + phi0`` with two more.  So the
    leading angle read at a grid point x is within ``3.25 eps (s0 |x| +
    2 pi)`` of its extremum q pi, which is below ``6.5 s0 h + 1e-14`` with
    h the float spacing at ``hi`` (``eps |x| < 2 h`` for ``|x| <= hi``).
    The leading cosine there is at least the cosine of that bound, so it
    keeps the series sign against the level's term sum T only while the
    bound is below ``acos(T)``; a window where it is not is refused.  So
    is a window where the target bracket width ``BRACKET_REL_WIDTH *
    max(1, |hi|)`` reaches a leading cell ``pi / s0``, from about k =
    ``pi / (s0 * 1e-13)`` on: every bracket there is narrow before its
    first step, and the roots are no longer refined.
    """
    margin = _checked_margin(margin)
    s0, phi0 = series.leading_action, series.leading_phase
    actions, amps, _ = series.arrays
    ratios = actions / s0
    for _ in range(level):
        amps = amps * ratios
        phi0 = _wrap_phase(phi0 + 0.5 * math.pi)
    total = math.fsum(amps.tolist())
    if total > 1.0 - margin:
        raise NotRegular(f"term sum {total:g} is not at most {1.0 - margin:g}")
    if hi < lo:
        return np.empty(0)
    q_lo = (s0 * lo + phi0) / math.pi - 1e-12
    q_hi = (s0 * hi + phi0) / math.pi + 1e-12
    if not q_hi - q_lo < MAX_GRID_CELLS:
        raise SizeCapExceeded(f"window: [{lo!r}, {hi!r}] spans {q_hi - q_lo:.3g} separator "
                              f"cells, above the cap of {MAX_GRID_CELLS}")
    spread = 6.5 * s0 * math.ulp(hi) + 1e-14
    if not spread < math.acos(total):
        raise SizeCapExceeded(
            f"window: [{lo!r}, {hi!r}] is beyond float resolution: its float spacing "
            f"{math.ulp(hi):.3g} puts the separators up to {spread:.3g} rad "
            f"off the leading cosine's extrema, where the term sum {total:g} can outweigh it"
        )
    if not BRACKET_REL_WIDTH * max(1.0, abs(hi)) < math.pi / s0:
        raise SizeCapExceeded(f"window: [{lo!r}, {hi!r}] is beyond float resolution: the target "
                              f"bracket width there reaches a leading cell {math.pi / s0:.3g}")
    q_lo, q_hi = math.ceil(q_lo), math.floor(q_hi)
    if q_hi < q_lo:
        return np.empty(0)
    qs = np.arange(q_lo, q_hi + 1)
    return (qs * math.pi - phi0) / s0


def _model_roots(
    series: SpectralSeries,
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    half: float = 0.0,
    level: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Model values at ``x`` and the roots of level ``level``'s Taylor models there.

    Runs ``MODEL_NEWTON_STEPS`` Newton steps on each polynomial
    ``p(u) = sum_n c_n u**n`` (n up to N, ``u = s0 * (k - x)``) from u = 0,
    the first in closed form (``p = c_0``, ``p' = c_1`` there); an iterate
    that leaves the bracket ``[a, b]`` is clipped back, so no polynomial is
    evaluated far outside the cell it models.  Returns ``c_0``, the roots as
    wavenumbers, bounds on their distance from a root of the series (the
    last step plus the model's error over the slope), the model's certified
    signs ``half`` either side of each root, and the values of the level
    below at the roots (None at level 0).

    Every level is read off level 0 (:func:`taylor_array`).  At level 0 the
    ``c_n`` are the series' own, the remainder at most ``tail *
    |u|**(N+1)``, ``tail = (1 + sum a_j r_j**(N+1)) / (N+1)!``.  At level m
    above, ``c_n = (n + 1) d_(n+1)``, formed in place over rows 1... of level
    m - 1's coefficients to order N + 1, models its slope, level m, and
    ``tail`` has ``a_j r_j**(m+N+1)``.  The level below's value at the root,
    ``d_0 + sum_(n>=1) (c_(n-1) / n) u**n`` by Horner, is within ``tail *
    |u|**(N+2) / (N+2)`` plus the rounding bound, which reading ``d_n`` back
    as ``c_(n-1) / n`` grows by one rounding per coefficient; the last item
    holds it moved toward zero by that bound (0 when the bound exceeds it):
    nearer zero than the true value, with its sign.

    With ``half`` > 0 the polynomial is also evaluated at ``u -+ half``.  The
    fourth returned array holds, per lane, the sign at ``u - half`` when the
    two signs differ and each value exceeds the remainder there plus a
    rounding bound, and 0 otherwise (always 0 with ``half`` = 0).  The
    rounding bound covers the coefficients' angle errors, which grow with
    ``s0 * |x|`` (``taylor_array`` derives them for term phasors built from
    bond phasors too), the sum over the J terms modelled, and the polynomial
    sum, at most ``e**|u|`` times the coefficient errors.  Points go through
    ``MODEL_BLOCK`` at a time, certificate and level below included; a
    block frees its Newton tables before the certificate's arrays and the
    rest, single rows too, at its end.
    """
    actions, amps, _ = series.arrays
    s0 = series.leading_action
    ratios = actions / s0
    top = MODEL_ORDER + 1
    source = max(level - 1, 0)  # the level whose model is computed
    order = MODEL_ORDER + (level > 0)
    tail = (1.0 + amps @ ratios ** (level + top)) / math.factorial(top)
    noise = 4.0 * np.finfo(float).eps * (1.0 + (amps * ratios**source).sum())
    scale = np.arange(1, top + 1)[:, None]
    f, root, error = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    side = np.zeros(x.size, dtype=np.int8)
    level_below = np.empty(x.size) if level else None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, x.size, MODEL_BLOCK):
            block = slice(start, start + MODEL_BLOCK)
            xb = x[block]
            lo, hi = s0 * (a[block] - xb), s0 * (b[block] - xb)
            d = taylor_array(series, xb, order, source)
            # Above level 0, c_n = (n + 1) d_(n+1) in place over rows 1... of d.
            c = np.multiply(d[1:], scale, out=d[1:]) if level else d
            f[block] = c[0]
            dc = scale[:-1] * c[1:]
            u = np.minimum(np.maximum(0.0 - c[0] / c[1], lo), hi)
            du, dp = np.abs(u), c[1]
            powers = np.ones((top, xb.size))
            rows = list(powers)
            for _ in range(MODEL_NEWTON_STEPS - 1):
                rows[1][...] = u
                for row in range(2, top):
                    np.multiply(rows[row - 1], u, out=rows[row])
                p = np.einsum("ij,ij->j", c, powers)
                dp = np.einsum("ij,ij->j", dc, powers[:-1])
                new = np.minimum(np.maximum(u - p / dp, lo), hi)
                du = np.abs(new - u)
                u = new
            del dc, powers, rows, p  # free the Newton tables before the certificate's arrays
            root[block] = xb + u / s0
            error[block] = (du + tail * np.abs(u) ** top / np.abs(dp)) / s0
            rounding = s0 * np.abs(xb) + len(amps) + 30.0
            if half:
                v = np.stack((u - half, u + half))
                pv = _polyval(c, v)
                v = np.abs(v)
                bound = tail * v**top + noise * np.exp(v) * rounding
                clear = (np.abs(pv) > bound).all(axis=0) & (pv[0] * pv[1] < 0.0)
                side[block] = np.where(clear, np.sign(pv[0]), 0.0)
                del v, pv, bound, clear
            if level:
                value = d[0] + u * _polyval(c / scale, u)
                v = np.abs(u)
                bound = tail * v ** (top + 1) / (top + 1) + noise * np.exp(v) * rounding
                level_below[block] = np.copysign(np.maximum(np.abs(value) - bound, 0.0), value)
                del value, v, bound
            del c, d, dp, lo, hi, u, du, new, rounding  # free this block's arrays before the next one's
    return f, root, error, side, level_below


def _polyval(coefficients: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sum_n coefficients[n] * v**n`` by Horner's rule, at each point of ``v``."""
    p = np.zeros_like(v)
    for row in coefficients[::-1]:
        p *= v
        p += row
    return p


def _refine_brackets(
    series: SpectralSeries,
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
    level: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Shrink sign-change brackets of level ``level`` onto their roots by
    Newton on a Taylor model.

    Each step evaluates the open lanes only, at one point each.  A lane
    still on the model gets the level's Taylor model there, read off level
    0 (:func:`_model_roots`): the sign of its row 0, the level's value,
    moves one end of the lane's bracket, and Newton on the polynomial gives
    a candidate root with a bound on its distance from the level's root.
    When the candidate lies in the bracket and that bound is at most a
    quarter of the target width ``BRACKET_REL_WIDTH * max(1, |x|)``, the
    lane stops there and is certified.  Otherwise the candidate is taken
    when it lies strictly inside the bracket at most half the lane's
    previous step away, and the lane bisects when it does not.

    A lane of the reported level 0 is certified by one probe pair of the
    series half the target width on either side.  A lane of a separator
    level (m >= 1) is certified by the model it already holds, when the
    polynomial's signs ``delta`` either side of the candidate clear its
    remainder and rounding and ``candidate -+ delta`` lies in the bracket;
    only the lanes the model leaves open take the probe pair.  Here ``s0 *
    delta = 0.25 * sqrt(ENDPOINT_TOL / (1 + sum a_j r_j**(m+1)))`` bounds
    the change of the level below across the enclosure, ``(1 + sum a_j
    r_j**(m+1)) * (s0 * delta)**2 / 2``, by ``ENDPOINT_TOL / 32``: a
    separator that passes the level below's ``ENDPOINT_TOL`` guard has the
    sign of the true extremum, and no root of that level falls between the
    two.  Returns the roots, their enclosures and the level below's values
    at the roots: at a root the model certified, its value moved toward
    zero by its error bound; NaN at every other root; None at level 0.

    A probe on a bracket end takes the sign recorded for that end instead
    of a fresh evaluation, which could flip a noise-level sign.  A pair
    that does not straddle the root shrinks the bracket and turns the model
    off: the lane evaluates the series alone and bisects on to the target
    width.  Every bracket end was evaluated, by the series or by a
    certified model, with opposite signs at the two ends, so the returned
    enclosure ``max(x - a, b - x)`` is certified.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    sa = np.sign(fa)
    x = 0.5 * (a + b)
    step = b - a  # each lane's last step
    model = np.ones(x.size, dtype=bool)
    open_ = np.ones(x.size, dtype=bool)
    values = np.full(x.size, np.nan) if level else None
    actions, amps, _ = series.arrays
    slope = amps @ (actions / series.leading_action) ** (level + 1)
    half = 0.25 * math.sqrt(ENDPOINT_TOL / (1.0 + slope)) if level else 0.0
    delta = half / series.leading_action
    for _ in range(200):
        mid = 0.5 * (a + b)
        narrow = open_ & (b - a <= BRACKET_REL_WIDTH * np.maximum(1.0, np.abs(mid)))
        x[narrow] = mid[narrow]
        open_ &= ~narrow
        lanes = np.flatnonzero(open_)
        if lanes.size == 0:
            break
        xl, sl, mt = x[lanes], sa[lanes], model[lanes]
        # A lane off the model keeps its own point as candidate: an end of
        # the updated bracket, which is never taken.
        f, cand, error = np.empty(lanes.size), xl.copy(), np.full(lanes.size, np.inf)
        side = np.zeros(lanes.size, dtype=np.int8)
        if not mt.all():
            f[~mt] = evaluate_array(series, xl[~mt], level)
        if mt.any():
            f[mt], cand[mt], error[mt], side[mt], level_below = _model_roots(
                series, xl[mt], a[lanes[mt]], b[lanes[mt]], half, level
            )
        left = np.sign(f) == sl
        al = np.where(left, xl, a[lanes])
        bl = np.where(left, b[lanes], xl)
        near = (cand >= al) & (cand <= bl)
        near &= error <= 0.25 * BRACKET_REL_WIDTH * np.maximum(1.0, np.abs(cand))
        take = (cand > al) & (cand < bl) & (np.abs(cand - xl) <= 0.5 * step[lanes])
        xn = np.where(near | take, cand, 0.5 * (al + bl))
        held = near & (side == sl) & (cand - delta >= al) & (cand + delta <= bl)
        al[held], bl[held] = cand[held] - delta, cand[held] + delta
        if level and mt.any():
            values[lanes[mt & held]] = level_below[held[mt]]
        probe = near & ~held
        if probe.any():
            al[probe], bl[probe], paired = _probe_pair(
                series, xn[probe], al[probe], bl[probe], sl[probe], level
            )
            xn[probe] = np.where(paired, xn[probe], 0.5 * (al[probe] + bl[probe]))
            held[probe] = paired
        model[lanes[near]] = False
        open_[lanes[held]] = False
        step[lanes] = np.abs(xn - xl)
        x[lanes], a[lanes], b[lanes] = xn, al, bl
    enclosure = np.maximum(x - a, b - x)
    return x, enclosure, values


def _probe_pair(
    series: SpectralSeries,
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    sa: np.ndarray,
    level: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test the signs of level ``level`` half the target width either side
    of converged points.

    A probe beyond a bracket end moves onto it and takes the sign recorded
    there.  Returns the brackets shrunk by the probe signs and whether each
    pair straddled the root, in which case its bracket is the pair.
    """
    h = 0.5 * BRACKET_REL_WIDTH * np.maximum(1.0, np.abs(x))
    lo = np.maximum(x - h, a)
    hi = np.minimum(x + h, b)
    s_lo, s_hi = sa.copy(), -sa
    fresh_lo, fresh_hi = lo > a, hi < b
    if fresh_lo.any() or fresh_hi.any():
        probes = np.concatenate((lo[fresh_lo], hi[fresh_hi]))
        signs = np.sign(evaluate_array(series, probes, level))
        n_lo = np.count_nonzero(fresh_lo)
        s_lo[fresh_lo] = signs[:n_lo]
        s_hi[fresh_hi] = signs[n_lo:]
    lo_left = s_lo == sa
    hi_left = s_hi == sa
    a = np.where(lo_left, np.where(hi_left, hi, lo), a)
    b = np.where(lo_left, np.where(hi_left, b, hi), lo)
    return a, b, lo_left & ~hi_left


def _floor_escape(series: SpectralSeries, start: float, cap: float) -> float:
    """First point of a geometric climb from ``start`` whose value is resolvable.

    Near k = 0 a series with an even symmetry (every secular series of a
    graph with real couplings, for instance) has a systematic zero whose
    true value sits below double-precision noise, so points there carry no
    usable sign.  Both the solver and the dense-scan oracle skip that
    region through this one helper, which keeps their window semantics
    identical.  The climb ``start, 4 start, ...`` up to ``cap`` is evaluated
    in one call, and its first point whose value exceeds ``ENDPOINT_TOL``
    is returned.
    """
    climb = [start]
    while climb[-1] < cap:
        climb.append(min(climb[-1] * 4.0, cap))
    values = evaluate_array(series, np.array(climb))
    resolvable = np.flatnonzero(np.abs(values) > ENDPOINT_TOL)
    if resolvable.size == 0:
        raise DegenerateSpectrum(f"series is numerically zero on [{start:g}, {cap:g}]")
    return climb[int(resolvable[0])]


def _level_pass(
    series: SpectralSeries,
    bounds: np.ndarray,
    values: np.ndarray,
    *,
    interior: slice | None = None,
    level: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sign-test consecutive cells of level ``level``; return roots and enclosures.

    ``bounds`` are the two padded edges and the separators between them.
    ``values`` holds, per bound, NaN or a value with the series' sign that
    is no farther from zero than the series there: the model of the level
    above supplies these at the roots it closed.  The entries at most
    ``ENDPOINT_TOL`` in magnitude, the NaN ones and so the edges among them,
    are evaluated by the series in one call.  A separator value at noise
    level (``ENDPOINT_TOL``) signals a (near-)double root and raises; an
    edge value at noise level counts as positive (see the module
    docstring).  Returns :func:`_refine_brackets`' roots, enclosures and
    level-below values at the roots.
    """
    fresh = ~(np.abs(values) > ENDPOINT_TOL)
    values[fresh] = evaluate_array(series, bounds[fresh], level)
    small = np.abs(values[1:-1]) <= ENDPOINT_TOL
    if small.any():
        where = float(bounds[1 + int(np.argmax(small))])
        raise DegenerateSpectrum(
            f"series value at separator {where:.12g} is consistent with a double root"
        )
    signs = np.where(np.abs(values) > ENDPOINT_TOL, np.sign(values), 1.0)
    change = signs[:-1] != signs[1:]
    if interior is not None and not change[interior].all():
        raise AssertionError("regular-level cell without a sign change; separator logic broken")
    return _refine_brackets(
        series, bounds[:-1][change], bounds[1:][change], signs[:-1][change], level
    )


def _checked_window(window) -> tuple[float, float]:
    """The window's bounds as floats.

    Raises one ``ValidationError`` listing every violation, anchored at
    ``window.kmin`` and ``window.kmax``: each bound must be a finite
    number, not a bool or a string, the lower one nonnegative and the
    upper one the greater.  A window that is not a pair of bounds is
    refused at ``window``.
    """
    try:
        k_lo, k_hi = window
    except (TypeError, ValueError):
        raise ValidationError(f"window: a (kmin, kmax) pair required, got {window!r}") from None
    problems = [
        f"window.{key}: window bounds must be finite numbers, got {bound!r}"
        for key, bound in (("kmin", k_lo), ("kmax", k_hi))
        if not is_finite_real(bound)
    ]
    if not problems:
        k_lo, k_hi = float(k_lo), float(k_hi)
        if k_lo < 0.0:
            problems.append(f"window.kmin: window must start at a nonnegative wavenumber, got {k_lo!r}")
        if not k_hi > k_lo:
            problems.append(f"window.kmax: window [{k_lo!r}, {k_hi!r}] contains no interval")
    if problems:
        raise ValidationError(problems)
    return k_lo, k_hi


def descend_with_trace(
    chain: DescentChain, window: tuple[float, float]
) -> tuple[Spectrum, DescentTrace]:
    """Run the descent and also return per-level roots for inspection.

    A window over the grid cap or beyond float resolution is refused
    quoting the window as given, not the padded one.
    """
    k_lo, k_hi = _checked_window(window)
    series, top = chain.series, chain.order
    cell = math.pi / series.leading_action
    pad = (top + 1) * cell
    lo_pad = max(k_lo - pad, POSITIVE_FLOOR)
    hi_pad = k_hi + pad
    width_tol = 1e-9 * cell
    # The regular level is separated by the extrema of its leading cosine,
    # every level below by the roots of the level above.
    try:
        seps = roots = base_separators(series, lo_pad, hi_pad, chain.margin, top)
    except SizeCapExceeded as exc:
        quoted = str(exc).replace(f"[{lo_pad!r}, {hi_pad!r}]", f"[{k_lo!r}, {k_hi!r}]", 1)
        raise SizeCapExceeded(quoted) from None
    known = np.full(roots.size, np.nan)  # the grid's values are evaluated
    level_roots: list[np.ndarray] = []  # top level first
    lo_edge = lo_pad
    if lo_pad == POSITIVE_FLOOR:  # level 0's climb, where the oracle's scan starts
        lo_edge = _floor_escape(series, lo_pad, lo_pad + 0.25 * cell)
    for m in range(top, -1, -1):
        inside = (roots > lo_edge + width_tol) & (roots < hi_pad - width_tol)
        bounds = np.concatenate(([lo_edge], roots[inside], [hi_pad]))
        values = np.concatenate(([np.nan], known[inside], [np.nan]))
        del known  # the level above's array: free it for this level's pass
        interior = slice(1, -1) if m == top and len(bounds) > 3 else None
        roots, encl, known = _level_pass(series, bounds, values, interior=interior, level=m)
        level_roots.append(roots)

    keep = (roots - encl <= k_hi) & (roots + encl >= k_lo)
    ks = roots[keep]
    encls = encl[keep]
    entries = tuple(
        map(SpectrumEntry, range(1, len(ks) + 1), ks.tolist(), (ks * ks).tolist(), encls.tolist())
    )
    trace = DescentTrace(
        padded_window=(lo_pad, hi_pad),
        separators=seps,
        level_roots=tuple(reversed(level_roots)),
    )
    return Spectrum(entries=entries), trace


def descend(chain: DescentChain, window: tuple[float, float]) -> Spectrum:
    """Every root of level 0 whose certified interval ``[k - enclosure, k +
    enclosure]`` meets the window ``[k_lo, k_hi]``, sorted and indexed from 1."""
    spectrum, _ = descend_with_trace(chain, window)
    return spectrum


def solve_graph(
    graph: QuantumGraph,
    window: tuple[float, float],
    margin: float = DEFAULT_MARGIN,
) -> Spectrum:
    """Spectrum of a scaling graph: secular series, chain, descent."""
    return descend(build_chain(secular_series(graph), margin), window)
