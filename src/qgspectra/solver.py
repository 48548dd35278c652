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

A level above 0 is the slope of the level below, less the terms that fall
below ``AMPLITUDE_FLOOR``, so its model is the derivative of the level
below's model one order higher, and the model that closes a lane also
gives that level's value at the root.  The level below reads its sign at
such a separator from that value when the value clears its error bound by
``ENDPOINT_TOL``, and evaluates the series at every other separator and
at the edges.

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

from .errors import DegenerateSpectrum, EmptyWindow, NotRegular
from .graphs import QuantumGraph, secular_series
from .series import (
    AMPLITUDE_FLOOR,
    DEFAULT_MARGIN,
    EVAL_BLOCK,
    MERGE_TOL,
    TWO_PI,
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
# Newton steps on the Taylor polynomial per evaluation of the model, the
# first (from the model's centre, u = 0) in closed form.
MODEL_NEWTON_STEPS = 7
# Points per Taylor model block: its (N+1)-row arrays hold half an EVAL_BLOCK,
# so a block costs no more memory than one of evaluate_array's.
MODEL_BLOCK = EVAL_BLOCK // (2 * (MODEL_ORDER + 1))


@dataclass(frozen=True)
class DescentChain:
    """Derivative levels 0..M of a series, M minimal for the given margin.

    The descent relies on each level being :func:`derivative_series` of the
    one below, so construction checks that: one leading action, leading
    phases a quarter period apart, each level's terms those the level below
    keeps above ``AMPLITUDE_FLOOR`` with amplitudes ``a * s / s0`` and phases a
    quarter period on, and bond rows of the same terms.  A ``ValueError``
    names the first level that breaks it.
    """

    levels: tuple[SpectralSeries, ...]
    margin: float

    def __post_init__(self):
        levels = self.levels
        bonds = levels[0].bonds
        if bonds is not None and not (
            bonds.nodes.size == len(levels[0].terms)
            and np.all(
                np.abs(bonds.rows @ bonds.actions - levels[0].arrays[0])
                <= MERGE_TOL * max(1.0, levels[0].leading_action)
            )
        ):
            raise ValueError("chain level 0 has bond rows that do not sum to its term actions")
        if len(levels) > 1 and not _derivatives(levels[:-1], levels[1:]):
            m = next(
                m for m in range(1, len(levels))
                if not _derivatives(levels[m - 1 : m], levels[m : m + 1])
            )
            raise ValueError(f"chain level {m} is not the derivative series of level {m - 1}")

    @property
    def order(self) -> int:
        return len(self.levels) - 1


def _derivatives(lower: tuple[SpectralSeries, ...], upper: tuple[SpectralSeries, ...]) -> bool:
    """Whether each series of ``upper`` is :func:`derivative_series` of the
    one of ``lower`` beside it, phases and relative amplitudes within
    ``MERGE_TOL``; the terms of all pairs are compared in one pass."""
    s0 = lower[0].leading_action
    quarter = 0.5 * math.pi
    for low, up in zip(lower, upper):
        turn = (up.leading_phase - low.leading_phase - quarter) % TWO_PI
        if (
            low.leading_action != s0
            or up.leading_action != s0
            or min(turn, TWO_PI - turn) > MERGE_TOL
            or up.bonds is not None and (low.bonds is None or up.bonds.parents is not low.bonds.parents)
        ):
            return False
    below = np.concatenate([s.arrays for s in lower], axis=1)
    above = np.concatenate([s.arrays for s in upper], axis=1)
    amps = below[1] * (below[0] / s0)
    kept = amps >= AMPLITUDE_FLOOR
    if np.count_nonzero(kept) != above.shape[1]:
        return False
    turn = (above[2] - below[2, kept] - quarter) % TWO_PI
    nodes_below = np.concatenate([_term_nodes(s) for s in lower])[kept]
    nodes_above = np.concatenate([_term_nodes(s) for s in upper])
    bonded = nodes_above >= 0
    return bool(
        np.array_equal(above[0], below[0, kept])
        and np.all(np.abs(above[1] - amps[kept]) <= MERGE_TOL * amps[kept])
        and np.all(np.minimum(turn, TWO_PI - turn) <= MERGE_TOL)
        and np.array_equal(nodes_above[bonded], nodes_below[bonded])
    )


def _term_nodes(series: SpectralSeries) -> np.ndarray:
    """The bond plan node of each term, or -1 for each term without one."""
    if series.bonds is None:
        return np.full(len(series.terms), -1)
    return series.bonds.nodes


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
    series: SpectralSeries,
    x: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    half: float = 0.0,
    below: SpectralSeries | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Model values at ``x`` and the roots of the series' Taylor models there.

    Runs ``MODEL_NEWTON_STEPS`` Newton steps on each polynomial
    ``p(u) = sum_n c_n u**n`` (n up to N, ``u = s0 * (k - x)``) from u = 0,
    the first in closed form (``p = c_0``, ``p' = c_1`` there); an iterate
    that leaves the bracket ``[a, b]`` is clipped back, so no polynomial is
    evaluated far outside the cell it models.  Returns ``c_0``, the roots as
    wavenumbers, bounds on their distance from a root of the series (the
    last step plus the model's error over the slope), the model's certified
    signs ``half`` either side of each root, and the values of the level
    ``below`` at the roots (None at level 0).

    At level 0 the ``c_n`` are the series' own (:func:`taylor_array`), the
    remainder at most ``tail * |u|**(N+1)``, ``tail = (1 + sum a_j
    r_j**(N+1)) / (N+1)!``.  Above, ``below`` is the level the series was
    differentiated from: with its coefficients ``d_n`` to order N + 1,
    ``c_n = (n + 1) d_(n+1)`` models its slope g'/s0, with ``b_j
    r_j**(N+2)`` of its terms in ``tail``.  The slope is the series plus
    the terms it dropped, each below ``AMPLITUDE_FLOOR``: at most
    ``dropped``, the floor times their count.  So ``c_0`` has the series' sign wherever the series
    exceeds ``dropped`` plus rounding, and ``dropped`` joins the remainder.
    The level below's value at the root, ``sum_n d_n u**n``, is within
    ``tail * |u|**(N+2) / (N+2)`` plus the rounding bound; the last item
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
    ``MODEL_BLOCK`` at a time, certificate and level below included.
    """
    source = series if below is None else below
    actions, amps, _ = source.arrays
    s0 = series.leading_action
    top = MODEL_ORDER + 1
    order = MODEL_ORDER + (below is not None)
    tail = (1.0 + amps @ (actions / s0) ** (order + 1)) / math.factorial(top)
    noise = 4.0 * np.finfo(float).eps * (1.0 + amps.sum())
    dropped = 0.0 if below is None else AMPLITUDE_FLOOR * (len(amps) - len(series.terms))
    n = np.arange(1, top)[:, None]
    f, root, error = np.empty(x.size), np.empty(x.size), np.empty(x.size)
    side = np.zeros(x.size, dtype=np.int8)
    level_below = None if below is None else np.empty(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for start in range(0, x.size, MODEL_BLOCK):
            block = slice(start, start + MODEL_BLOCK)
            xb = x[block]
            lo, hi = s0 * (a[block] - xb), s0 * (b[block] - xb)
            d = taylor_array(source, xb, order)
            c = d if below is None else np.arange(1, top + 1)[:, None] * d[1:]
            f[block] = c[0]
            dc = n * c[1:]
            u = np.clip(0.0 - c[0] / c[1], lo, hi)
            du, dp = np.abs(u), c[1]
            powers = np.ones((top, xb.size))
            for _ in range(MODEL_NEWTON_STEPS - 1):
                powers[1] = u
                for row in range(2, top):
                    np.multiply(powers[row - 1], u, out=powers[row])
                p = np.einsum("ij,ij->j", c, powers)
                dp = np.einsum("ij,ij->j", dc, powers[:-1])
                new = np.clip(u - p / dp, lo, hi)
                du = np.abs(new - u)
                u = new
            root[block] = xb + u / s0
            error[block] = (du + (tail * np.abs(u) ** top + dropped) / np.abs(dp)) / s0
            rounding = s0 * np.abs(xb) + len(amps) + 30.0
            if half:
                v = np.stack((u - half, u + half))
                pv = _polyval(c, v)
                v = np.abs(v)
                bound = tail * v**top + dropped + noise * np.exp(v) * rounding
                clear = (np.abs(pv) > bound).all(axis=0) & (pv[0] * pv[1] < 0.0)
                side[block] = np.where(clear, np.sign(pv[0]), 0.0)
                del v, pv, bound, clear
            if below is not None:
                value = _polyval(d, u)
                v = np.abs(u)
                bound = tail * v ** (top + 1) / (top + 1) + noise * np.exp(v) * rounding
                level_below[block] = np.copysign(np.maximum(np.abs(value) - bound, 0.0), value)
            del c, d, dc, dp, powers  # free this block's arrays before the next one's
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
    *,
    separators: bool = False,
    below: SpectralSeries | None = None,
    values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Shrink sign-change brackets onto their roots by Newton on a Taylor model.

    Each step evaluates the open lanes only, at one point each.  A lane
    still on the model gets the Taylor model of the series there
    (:func:`_model_roots`): the sign of its row 0 moves one end of the
    lane's bracket, and Newton on the polynomial gives a candidate root
    with a bound on its distance from the series root.  Row 0 is the series
    value at level 0 and, at a separator level, the slope of the level
    below: within the bound on the dropped terms, plus rounding, of it.
    When the candidate lies in the bracket and that bound is at most a
    quarter of the target width ``BRACKET_REL_WIDTH * max(1, |x|)``, the
    lane stops there and is certified.  Otherwise the candidate is taken
    when it lies strictly inside the bracket at most half the lane's
    previous step away, and the lane bisects when it does not.

    A lane of the reported level is certified by one probe pair of the
    series half the target width on either side.  A lane of a separator
    level (``separators``) is certified by the model it already holds, when
    the polynomial's signs ``delta`` either side of the candidate clear its
    remainder and rounding and ``candidate -+ delta`` lies in the bracket;
    only the lanes the model leaves open take the probe pair.  Here
    ``s0 * delta = 0.25 * sqrt(ENDPOINT_TOL / (1 + sum a_j r_j))`` bounds the
    change of the level below across the enclosure, ``(1 + sum a_j r_j) *
    (s0 * delta)**2 / 2``, by ``ENDPOINT_TOL / 32``: a separator that passes
    the level below's ``ENDPOINT_TOL`` guard has the sign of the true
    extremum, and no root of that level falls between the two.

    With ``below``, the level the series was differentiated from, each
    lane the model certifies also gets that level's value at its root, the
    model's source, moved toward zero by its error bound, in ``values``;
    the other lanes' entries are left as they are.

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
    half = 0.0
    if separators:
        actions, amps, _ = series.arrays
        half = 0.25 * math.sqrt(ENDPOINT_TOL / (1.0 + amps @ (actions / series.leading_action)))
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
            f[~mt] = evaluate_array(series, xl[~mt])
        level_below = None
        if mt.any():
            f[mt], cand[mt], error[mt], side[mt], level_below = _model_roots(
                series, xl[mt], a[lanes[mt]], b[lanes[mt]], half, below
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
        if level_below is not None:
            closed = held[mt]
            values[lanes[mt][closed]] = level_below[closed]
        probe = near & ~held
        if probe.any():
            al[probe], bl[probe], paired = _probe_pair(
                series, xn[probe], al[probe], bl[probe], sl[probe]
            )
            xn[probe] = np.where(paired, xn[probe], 0.5 * (al[probe] + bl[probe]))
            held[probe] = paired
        model[lanes[near]] = False
        open_[lanes[held]] = False
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
    identical.  The climb multiplies by 4 up to ``cap`` and returns its first
    point whose value exceeds ``ENDPOINT_TOL``.  ``start`` is most often
    resolvable, so it is evaluated alone; the rest of the climb, in one call.
    """
    if abs(evaluate_array(series, np.array([start]))[0]) > ENDPOINT_TOL:
        return start
    climb, x = [], start
    while x < cap:
        x = min(x * 4.0, cap)
        climb.append(x)
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
    below: SpectralSeries | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Sign-test consecutive cells of one level; return roots and enclosures.

    ``bounds`` are the two padded edges and the separators between them.
    ``values`` holds, per bound, NaN or a value with the series' sign that
    is no farther from zero than the series there: the model of the level
    above supplies these at the roots it closed.  The entries at most
    ``ENDPOINT_TOL`` in magnitude, the NaN ones and so the edges among them,
    are evaluated by the series in one call.  A separator value at noise
    level (``ENDPOINT_TOL``) signals a (near-)double root and raises; an
    edge value at noise level counts as positive (see the module
    docstring).  With ``below``, the level this one was differentiated
    from, the third returned array holds that level's values at the roots
    in the same form, written over ``values`` once their signs are read;
    at level 0 it is None.
    """
    fresh = ~(np.abs(values) > ENDPOINT_TOL)
    values[fresh] = evaluate_array(series, bounds[fresh])
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
    known = None
    if below is not None:
        known = values[: np.count_nonzero(change)]
        known.fill(np.nan)
    if not change.any():
        return np.empty(0), np.empty(0), known
    roots, encl = _refine_brackets(
        series,
        bounds[:-1][change],
        bounds[1:][change],
        signs[:-1][change],
        separators=below is not None,
        below=below,
        values=known,
    )
    return roots, encl, known


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
    known = np.full(roots.size, np.nan)  # the grid's values are evaluated
    level_roots: list[np.ndarray] = []  # top level first
    # Each level is the derivative of the level below, so a systematic zero
    # at k = 0 is one order deeper a level down: a separator level's floor
    # climb starts where the last climb escaped.  Level 0 starts at the
    # floor, as the oracle's scan does.
    climbed = lo_pad
    for m in range(top, -1, -1):
        series = levels[m]
        lo_edge = lo_pad
        if lo_pad == POSITIVE_FLOOR:
            start = climbed if m else lo_pad
            lo_edge = climbed = _floor_escape(series, start, lo_pad + 0.25 * cell)
        inside = (roots > lo_edge + width_tol) & (roots < hi_pad - width_tol)
        bounds = np.concatenate(([lo_edge], roots[inside], [hi_pad]))
        values = np.concatenate(([np.nan], known[inside], [np.nan]))
        del known  # the level above's array: free it for this level's pass
        interior = slice(1, -1) if m == top and len(bounds) > 3 else None
        roots, encl, known = _level_pass(
            series, bounds, values, interior=interior, below=levels[m - 1] if m else None
        )
        level_roots.append(roots)

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
