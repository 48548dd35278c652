"""Bootstrap-and-descent root solver for canonical cosine series.

:func:`build_chain` differentiates (and renormalizes) the series until its
term sum drops below one; the number of steps is the regularization order
M.  At that regular level the extrema of the leading cosine are root
separators: the series sign there is pinned by the leading term, so every
separator cell brackets exactly one simple root.  Walking back down, the
roots of each level are the extrema of the level below and therefore
separate its roots.  One loop handles every level the same way: it probes
each cell for a sign change, and each cell yields at most one root.  Each
sign-change bracket is shrunk by Newton steps on a Taylor model of the
series about the current point (the family is closed under d/dk, so one
cosine and one sine per term give every derivative there) that never
leave the bracket, falling back to bisection; the model's root is
certified by one pair of sign probes of the series just around it.  Every
root is returned inside a bracket whose two ends were evaluated with
opposite signs.

Every level runs between the same two edges, the window padded by M + 1
leading cells (the lower edge clamped at ``POSITIVE_FLOOR`` and, there,
climbed off the systematic zero at k = 0).  The edges are arbitrary
points: an edge value at noise level counts as positive, since a wrong
edge sign can only change the roots of the edge cells, and each level
spreads that at most one cell further inward, inside the padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateEndpoint,
    DegenerateSpectrum,
    EmptyWindow,
    NotRegular,
)
from .graphs import QuantumGraph, secular_series
from .series import (
    DEFAULT_MARGIN,
    EVAL_BLOCK,
    SpectralSeries,
    derivative_series,
    evaluate_array,
    regularity_sum,
    taylor_array,
)

# Deepest derivative level build_chain materializes before giving up.
MAX_ORDER = 100_000

# Roots are never reported below this wavenumber; padding is clamped here.
POSITIVE_FLOOR = 1e-9
# |g| at or below this at a separator signals a (near-)double root.
ENDPOINT_TOL = 1e-12
# Target bracket width, relative to max(1, |k|): refinement stops below it.
BRACKET_REL_WIDTH = 1e-13
# Window membership slack for roots sitting on a float window edge.
EDGE_SLACK_REL = 1e-11
# Degree N of the Taylor model that refinement steps on.  Its remainder at
# u = s0 * (k - x) is at most (1 + sum a) * |u|**17 / 17!: about 6e-12 *
# (1 + sum a) half a leading cell from x (|u| = pi/2), so the first model
# about a cell midpoint already pins most roots to the target width.
MODEL_ORDER = 16
# Newton steps on the Taylor polynomial per evaluation of the model.
MODEL_NEWTON_STEPS = 7
# Points per Taylor model block: its (N+1)-row arrays hold half an EVAL_BLOCK,
# so a block costs no more memory than one of evaluate_array's.
MODEL_BLOCK = EVAL_BLOCK // (2 * (MODEL_ORDER + 1))


@dataclass(frozen=True)
class DescentChain:
    """Derivative levels 0..M of a series, M minimal for the given margin."""

    levels: tuple[SpectralSeries, ...]
    margin: float

    @property
    def order(self) -> int:
        return len(self.levels) - 1


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
    """Materialize derivative levels up to the first regular one.

    Termination is guaranteed by the strict action gap: every ratio
    action/leading_action is below 1, so amplitudes decay geometrically.
    A gap so small that ``MAX_ORDER`` levels do not suffice raises
    ``NotRegular``.
    """
    if not (0.0 < margin < 1.0):
        raise ValueError(f"margin must lie in (0, 1), got {margin!r}")
    levels = [series]
    while regularity_sum(levels[-1]) > 1.0 - margin:
        if len(levels) > MAX_ORDER:
            raise NotRegular(
                f"term sum {regularity_sum(levels[-1]):g} is still above {1.0 - margin:g} "
                f"after {MAX_ORDER} derivative levels; the action gap is too small"
            )
        levels.append(derivative_series(levels[-1]))
    return DescentChain(levels=tuple(levels), margin=margin)


def regularization_order(series: SpectralSeries, margin: float = DEFAULT_MARGIN) -> int:
    """Smallest derivative level whose term sum is at most ``1 - margin``."""
    return build_chain(series, margin).order


def base_separators(
    series: SpectralSeries,
    lo: float,
    hi: float,
    margin: float = DEFAULT_MARGIN,
) -> np.ndarray:
    """Extremal grid of the leading cosine inside [lo, hi].

    At each grid point the leading cosine is +-1 while the terms sum to
    less than 1 - margin in magnitude, so the series sign alternates and
    consecutive grid points bracket exactly one root.  Requires the series
    to be regular at the given margin.
    """
    if regularity_sum(series) > 1.0 - margin:
        raise NotRegular(
            f"term sum {regularity_sum(series):g} is not at most {1.0 - margin:g}"
        )
    if hi < lo:
        return np.empty(0)
    s0 = series.leading_action
    phi0 = series.leading_phase
    q_lo = math.ceil((s0 * lo + phi0) / math.pi - 1e-12)
    q_hi = math.floor((s0 * hi + phi0) / math.pi + 1e-12)
    if q_hi < q_lo:
        return np.empty(0)
    qs = np.arange(q_lo, q_hi + 1)
    return (qs * math.pi - phi0) / s0


def _model_roots(
    series: SpectralSeries, x: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series values at ``x`` and the roots of its Taylor models there.

    Runs ``MODEL_NEWTON_STEPS`` Newton steps on each polynomial
    ``sum_n c_n u**n`` (:func:`taylor_array`, ``u = s0 * (k - x)``) from
    u = 0; an iterate that leaves the bracket ``[a, b]`` is clipped back,
    so no polynomial is evaluated far outside the cell it models.  Returns
    the values (row 0), the roots as wavenumbers, and bounds on their
    distance from a root of the series: the last step plus the Lagrange
    remainder over the slope.  Level N+1 of the series is at most
    ``1 + sum a_j r_j**(N+1)`` in magnitude, which bounds the remainder by
    that times ``|u|**(N+1) / (N+1)!``.  Points go through ``MODEL_BLOCK``
    at a time.
    """
    actions, amps, _ = series.arrays
    s0 = series.leading_action
    top = MODEL_ORDER + 1
    tail = (1.0 + amps @ (actions / s0) ** top) / math.factorial(top)
    n = np.arange(1, top)[:, None]
    f, root, error = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, x.size, MODEL_BLOCK):
            block = slice(start, start + MODEL_BLOCK)
            xb = x[block]
            lo, hi = s0 * (a[block] - xb), s0 * (b[block] - xb)
            c = taylor_array(series, xb, MODEL_ORDER)
            f[block] = c[0]
            powers = np.ones_like(c)
            u = np.zeros(xb.size)
            for _ in range(MODEL_NEWTON_STEPS):
                powers[1:] = u
                np.cumprod(powers[1:], axis=0, out=powers[1:])
                p = np.einsum("ij,ij->j", c, powers)
                dp = np.einsum("ij,ij,ij->j", n, c[1:], powers[:-1])
                new = np.clip(u - p / dp, lo, hi)
                du = np.abs(new - u)
                u = new
            root[block] = xb + u / s0
            error[block] = (du + tail * np.abs(u) ** top / np.abs(dp)) / s0
            del c, powers  # free this block's arrays before the next one's
    return f, root, error


def _refine_brackets(
    series: SpectralSeries,
    a: np.ndarray,
    b: np.ndarray,
    fa: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink sign-change brackets onto their roots by Newton on a Taylor model.

    Each step evaluates the open lanes only, at one point each.  A lane
    still on the model gets the Taylor model of the series there
    (:func:`_model_roots`): its row 0 is the series value, whose sign
    moves one end of the lane's bracket, and Newton on the polynomial gives
    a candidate root with a bound on its distance from the series root.
    When the candidate lies in the bracket and that bound is at most a
    quarter of the target width ``BRACKET_REL_WIDTH * max(1, |x|)``, the
    lane stops there and is certified by one probe pair half the target
    width on either side.  Otherwise the candidate is taken when it lies
    strictly inside the bracket at most half the lane's previous step
    away, and the lane bisects when it does not.  A probe on a bracket end
    takes the sign recorded for that end instead of a fresh evaluation,
    which could flip a noise-level sign.  A pair that does not straddle
    the root shrinks the bracket and turns the model off: the lane
    evaluates the series alone and bisects on to the target width.  Every
    bracket end was evaluated, with opposite signs at the two ends, so the
    returned enclosure ``max(x - a, b - x)`` is certified.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    sa = np.sign(fa)
    x = 0.5 * (a + b)
    step = b - a  # each lane's last step
    model = np.ones(x.size, dtype=bool)
    open_ = np.ones(x.size, dtype=bool)
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
        if not mt.all():
            f[~mt] = evaluate_array(series, xl[~mt])
        if mt.any():
            f[mt], cand[mt], error[mt] = _model_roots(series, xl[mt], a[lanes[mt]], b[lanes[mt]])
        left = np.sign(f) == sl
        al = np.where(left, xl, a[lanes])
        bl = np.where(left, b[lanes], xl)
        near = (cand >= al) & (cand <= bl)
        near &= error <= 0.25 * BRACKET_REL_WIDTH * np.maximum(1.0, np.abs(cand))
        take = (cand > al) & (cand < bl) & (np.abs(cand - xl) <= 0.5 * step[lanes])
        xn = np.where(near | take, cand, 0.5 * (al + bl))
        if near.any():
            al[near], bl[near], held = _probe_pair(series, xn[near], al[near], bl[near], sl[near])
            xn[near] = np.where(held, xn[near], 0.5 * (al[near] + bl[near]))
            model[lanes[near]] = False
            open_[lanes[near][held]] = False
        step[lanes] = np.abs(xn - xl)
        x[lanes], a[lanes], b[lanes] = xn, al, bl
    enclosure = np.maximum(x - a, b - x)
    return x, enclosure


def _probe_pair(
    series: SpectralSeries,
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    sa: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test the signs half the target width either side of converged points.

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
        signs = np.sign(evaluate_array(series, np.concatenate((lo[fresh_lo], hi[fresh_hi]))))
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
    identical.  The climb multiplies by 4 up to ``cap``; all of its points
    are evaluated in one call, and the first whose value exceeds
    ``ENDPOINT_TOL`` is returned.
    """
    candidates = [start]
    while candidates[-1] < cap:
        candidates.append(min(candidates[-1] * 4.0, cap))
    values = evaluate_array(series, np.array(candidates))
    resolvable = np.flatnonzero(np.abs(values) > ENDPOINT_TOL)
    if resolvable.size == 0:
        raise DegenerateEndpoint(f"series is numerically zero on [{start:g}, {cap:g}]")
    return candidates[int(resolvable[0])]


def _level_pass(
    series: SpectralSeries, bounds: np.ndarray, *, interior: slice | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Probe consecutive cells of one level; return roots and enclosures.

    ``bounds`` are the two padded edges and the separators between them,
    evaluated in one call.  A separator value at noise level
    (``ENDPOINT_TOL``) signals a (near-)double root and raises; an edge
    value at noise level counts as positive (see the module docstring).
    """
    values = evaluate_array(series, bounds)
    small = np.abs(values[1:-1]) <= ENDPOINT_TOL
    if small.any():
        where = float(bounds[1 + int(np.argmax(small))])
        raise DegenerateEndpoint(
            f"series value at separator {where:.12g} is consistent with a double root"
        )
    signs = np.where(np.abs(values) > ENDPOINT_TOL, np.sign(values), 1.0)
    change = signs[:-1] != signs[1:]
    if interior is not None and not change[interior].all():
        raise AssertionError("regular-level cell without a sign change; separator logic broken")
    if not change.any():
        return np.empty(0), np.empty(0)
    return _refine_brackets(series, bounds[:-1][change], bounds[1:][change], signs[:-1][change])


def descend_with_trace(
    chain: DescentChain, window: tuple[float, float]
) -> tuple[Spectrum, DescentTrace]:
    """Run the descent and also return per-level roots for inspection."""
    k_lo, k_hi = float(window[0]), float(window[1])
    if not (math.isfinite(k_lo) and math.isfinite(k_hi)):
        raise ValueError("window bounds must be finite")
    if k_lo < 0.0:
        raise ValueError(f"window must start at a nonnegative wavenumber, got {k_lo!r}")
    if not k_hi > k_lo:
        raise EmptyWindow(f"window [{k_lo!r}, {k_hi!r}] contains no interval")

    levels = chain.levels
    top = chain.order
    cell = math.pi / levels[0].leading_action
    pad = (top + 1) * cell
    lo_pad = max(k_lo - pad, POSITIVE_FLOOR)
    hi_pad = k_hi + pad
    width_tol = 1e-9 * cell
    # The regular level is separated by the extrema of its leading cosine,
    # every level below by the roots of the level above.
    seps = roots = base_separators(levels[top], lo_pad, hi_pad, chain.margin)
    level_roots: list[np.ndarray] = []  # top level first
    try:
        for m in range(top, -1, -1):
            series = levels[m]
            lo_edge = lo_pad
            if lo_pad == POSITIVE_FLOOR:
                lo_edge = _floor_escape(series, lo_pad, lo_pad + 0.25 * cell)
            inner = roots[(roots > lo_edge + width_tol) & (roots < hi_pad - width_tol)]
            bounds = np.concatenate(([lo_edge], inner, [hi_pad]))
            interior = slice(1, -1) if m == top and len(bounds) > 3 else None
            roots, encl = _level_pass(series, bounds, interior=interior)
            level_roots.append(roots)
    except DegenerateEndpoint as exc:
        raise DegenerateSpectrum(str(exc)) from exc

    slack = EDGE_SLACK_REL * max(1.0, abs(k_lo), abs(k_hi))
    keep = (roots >= k_lo - slack) & (roots <= k_hi + slack)
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
    """Extract every root of level 0 inside the window, sorted and indexed."""
    spectrum, _ = descend_with_trace(chain, window)
    return spectrum


def solve_graph(
    graph: QuantumGraph,
    window: tuple[float, float],
    margin: float = DEFAULT_MARGIN,
) -> Spectrum:
    """Spectrum of a scaling graph: secular series, chain, descent."""
    return descend(build_chain(secular_series(graph), margin), window)
