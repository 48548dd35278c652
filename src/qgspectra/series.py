"""Finite cosine series with a dominant leading term, and their derivative algebra.

A series represents the almost-periodic function

    g(k) = cos(s0*k + phi0) - sum_j a_j * cos(s_j*k + phi_j)

where every term action ``s_j`` lies strictly below the leading action
``s0``, one cosine per action: :func:`canonicalize` is the one place
where terms of one action merge, as a sum of phasors.  The family is
closed under (d/dk)/s0: derivative level m is level 0 with amplitudes
``a_j r_j**m`` (``r_j = s_j/s0``) and every phase m quarter periods on,
so no level drops a term but the constant one.
Because all ratios are below one, repeated differentiation eventually
pushes the term sum below 1, after which the leading cosine pins the sign
of the series at its own extrema.  That decay is what the spectral
descent in :mod:`qgspectra.solver` relies on; the solver also finds the
chain's regularization order.

A series keeps its terms as a tuple and, built once on first use, as
arrays of actions, amplitudes and phases; :func:`evaluate_array` sums the
terms with one matrix product per block of points, and
:func:`taylor_array` gives the Taylor coefficients about each point from
the same blocks, both at any derivative level, read off level 0.

The secular series of a graph also carries its bond structure
(:class:`BondTerms`): each term's action is a signed sum of bond actions,
so each term's phasor is the leading phasor times a product of bond
phasors.  When the series has more terms than twice its bonds, the
kernel takes one cosine and one sine per bond and point and builds the
term phasors by complex multiplies; every other series takes one cosine
and one sine per term and point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi

# Terms whose actions lie within this of their group's first action are one
# cosine: canonicalize sums them as phasors.
MERGE_TOL = 1e-12
# Canonical amplitudes below this are dropped outright.
AMPLITUDE_FLOOR = 1e-14
# Default headroom below 1 required of a regular term sum.
DEFAULT_MARGIN = 1e-6
# Entries (terms x points) of one cosine block in evaluate_array, complex
# entries (plan nodes x points) in the bond kernel; bounds its temporary
# memory whatever the number of points.
EVAL_BLOCK = 1 << 14


class TrigTerm(NamedTuple):
    """One subtracted cosine term: ``amplitude * cos(action*k + phase)``."""

    action: float
    amplitude: float
    phase: float


class BondTerms(NamedTuple):
    """Each term of a graph's secular series as a product of bond phasors.

    Term j has the centred action ``kappa_j = sum_b eps_jb * S_b`` with
    ``eps_jb`` in {-1, 0, 1} (row j of ``rows``), while the leading action
    is ``S0 = sum_b S_b``.  So ``exp(i kappa_j k)`` is ``exp(i S0 k)`` times
    the bond factor ``z_b = exp(-i S_b k)`` for each bond with
    ``eps_jb = 0`` and ``z_b**2`` for each bond with ``eps_jb = -1``.

    The products form a tree rooted at the all-ones vector, the leading
    phasor: node 0 is the root and node i > 0 is node ``parents[i]`` times
    the bond factor ``factors[i]``, ``z_b`` (factor b) or ``z_b**2``
    (factor B + b).  Nodes are laid out layer by layer, ``layers`` holding
    each layer's ``(start, stop)``, and every parent lies in an earlier
    layer; ``nodes`` holds the node of each term.  The plan is built once
    per graph; every derivative level is read off level 0 through it.

    The float term action, the rounded sum of its exponents' actions less
    the rounded ``S0``, differs from ``sum_b eps_jb S_b`` by its ``drift``,
    at most ``1.5 eps S0``; the kernel corrects the series value for it.
    """

    actions: np.ndarray
    rows: np.ndarray
    drift: np.ndarray
    nodes: np.ndarray
    parents: np.ndarray
    factors: np.ndarray
    layers: tuple[tuple[int, int], ...]
    widest: int

    @classmethod
    def from_rows(cls, actions, rows, term_actions) -> BondTerms:
        """Plan the products for bond actions and one eps row per term, the
        term actions given for their drifts.

        A node's parent raises one of its entries below 1: to 1, or from -1
        to 0.  Each node takes the first such parent, in bond order, that
        is already a node; a node with none adds the parent that raises its
        first entry below 1 to 1, and so on until every node has a parent.
        Nodes are coded as base-3 numbers with digits ``eps + 1``, so a
        parent's code exceeds its child's.
        """
        actions = np.asarray(actions, dtype=float)
        n_bonds = actions.size
        rows = np.asarray(rows, dtype=np.int8).reshape(-1, n_bonds)
        place = [3**b for b in range(n_bonds)]
        root = 2 * sum(place)
        codes = ((rows + 1) * place).sum(axis=1).tolist()
        # code -> (parent code, factor); None until planned.  A round plans
        # its nodes against the keys known when it starts, in any order.
        parent = dict.fromkeys(codes)
        parent[root] = (root, 0)
        pending = parent.keys() - {root}
        while pending:
            for v in pending:
                steps = []
                for b, p in enumerate(place):
                    digit = v // p % 3
                    if digit < 2:
                        steps.append((v + (2 - digit) * p, b if digit else n_bonds + b))
                    if digit == 0:
                        steps.append((v + p, b))
                parent[v] = next((step for step in steps if step[0] in parent), steps[0])
            pending = {parent[v][0] for v in pending} - parent.keys()
            parent.update(dict.fromkeys(pending))
        depth = {root: 0}
        for v in sorted(parent.keys() - {root}, reverse=True):  # parents first
            depth[v] = depth[parent[v][0]] + 1
        order = sorted(depth, key=lambda v: (depth[v], v))
        index = {v: i for i, v in enumerate(order)}
        starts = [i for i in range(1, len(order)) if depth[order[i]] != depth[order[i - 1]]]
        layers = tuple(zip(starts, starts[1:] + [len(order)]))
        drift = [
            math.fsum([kappa] + [-e * s for e, s in zip(row, actions.tolist()) if e])
            for kappa, row in zip(np.asarray(term_actions, dtype=float).tolist(), rows.tolist())
        ]
        return cls(
            actions=actions,
            rows=rows,
            drift=np.array(drift),
            nodes=np.array([index[v] for v in codes], dtype=np.intp),
            parents=np.array([index[parent[v][0]] for v in order], dtype=np.intp),
            factors=np.array([parent[v][1] for v in order], dtype=np.intp),
            layers=layers,
            widest=max((stop - start for start, stop in layers), default=0),
        )


@dataclass(frozen=True)
class SpectralSeries:
    """Canonical cosine series.

    Instances should be built through :func:`canonicalize` (or by
    :func:`derivative_series`), which guarantees positive amplitudes,
    phases in [0, 2*pi), strictly sub-leading actions and one term per
    action: actions rise by more than ``MERGE_TOL``.  The secular series
    of a graph also carries ``bonds``, its terms as products of bond
    phasors; it takes no part in equality, hashing or repr.
    """

    leading_action: float
    leading_phase: float
    terms: tuple[TrigTerm, ...]
    bonds: BondTerms | None = field(default=None, compare=False, repr=False)

    @cached_property
    def arrays(self) -> np.ndarray:
        """Term actions, amplitudes and phases as the rows of a float array."""
        return np.array(self.terms, dtype=float).reshape(-1, 3).T.copy()

    @cached_property
    def _bond_weights(self) -> dict:
        """The bond kernel's complex weights, by derivative level and Taylor
        order, each gathered once from the table of turned weights held
        under the key None (:func:`_turned_weights`)."""
        return {}


def is_finite_real(x) -> bool:
    """True for a real number, not a bool, whose float value is finite."""
    if type(x) is float:  # most calls, without the slower ABC check below
        return math.isfinite(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond float range
        return False


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

    Terms are sorted by action and grouped: a group holds every term whose
    action lies within ``MERGE_TOL`` of the group's first action and
    becomes one cosine at that action, its amplitude and phase those of the
    ``math.fsum`` of the group's phasors ``a * exp(i phi)``.  A group of one
    term keeps its bits.  A negative amplitude is folded into a pi phase
    shift, phases are reduced mod 2*pi and amplitudes below
    ``AMPLITUDE_FLOOR`` are dropped, so a cancelling group leaves no term.

    Raises one ``ValidationError`` listing every violation, each anchored
    at its config path: ``series.s0`` unless the leading action is a finite
    number > 0, ``series.phi0`` unless the leading phase is a finite
    number, ``series.terms[i]`` unless term i is a triple of finite
    numbers with ``0 <= action < s0``, and ``series.terms`` when the terms
    are not iterable or their amplitudes sum beyond float range.  Bools
    and numeric strings are not numbers here.
    """
    problems: list[str] = []
    s0 = float(leading_action) if is_finite_real(leading_action) else math.nan
    if not s0 > 0.0:
        problems.append(f"series.s0: leading action must be > 0, got {leading_action!r}")
    if not is_finite_real(leading_phase):
        problems.append(f"series.phi0: leading phase must be finite, got {leading_phase!r}")
    if not isinstance(raw_terms, Iterable):
        problems.append(f"series.terms: (action, amplitude, phase) triples required, got {raw_terms!r}")
        raw_terms = ()

    terms: list[tuple[float, float, float]] = []
    for i, term in enumerate(raw_terms):
        try:
            action, amplitude, phase = term
        except (TypeError, ValueError):
            problems.append(f"series.terms[{i}]: (action, amplitude, phase) triple required, got {term!r}")
            continue
        if not (is_finite_real(action) and is_finite_real(amplitude) and is_finite_real(phase)):
            problems.append(f"series.terms[{i}]: term {(action, amplitude, phase)!r} has a non-finite field")
            continue
        action, amplitude, phase = float(action), float(amplitude), float(phase)
        if action < 0.0:
            problems.append(f"series.terms[{i}]: term action must be >= 0, got {action!r}")
        elif action >= s0:
            problems.append(f"series.terms[{i}]: term action {action!r} is not strictly below the leading action {s0!r}")
        elif amplitude != 0.0:
            terms.append((action, amplitude, phase))
    try:
        math.fsum(abs(t[1]) for t in terms)
    except OverflowError:
        problems.append("series.terms: term amplitudes sum beyond float range")
    if problems:
        raise ValidationError(problems)

    terms.sort(key=lambda t: t[0])
    merged: list[TrigTerm] = []
    i = 0
    while i < len(terms):
        j = i + 1
        while j < len(terms) and terms[j][0] - terms[i][0] <= MERGE_TOL:
            j += 1
        action, amplitude, phase = terms[i]
        if j > i + 1:  # one cosine at the group's first action
            x = math.fsum(a * math.cos(p) for _, a, p in terms[i:j])
            y = math.fsum(a * math.sin(p) for _, a, p in terms[i:j])
            amplitude, phase = math.hypot(x, y), math.atan2(y, x)
        if amplitude < 0.0:
            amplitude, phase = -amplitude, phase + math.pi
        if amplitude >= AMPLITUDE_FLOOR:
            merged.append(TrigTerm(action, amplitude, _wrap_phase(phase)))
        i = j

    return SpectralSeries(
        leading_action=s0,
        leading_phase=_wrap_phase(float(leading_phase)),
        terms=tuple(merged),
    )


def evaluate_array(series: SpectralSeries, ks: np.ndarray, level: int = 0) -> np.ndarray:
    """Vectorized evaluation of derivative level ``level`` over an array of wavenumbers.

    Points go through in blocks of at most ``EVAL_BLOCK`` term-point (or
    plan node-point) entries, one point at least, so temporary memory does
    not grow with the number of points.
    """
    ks = np.asarray(ks, dtype=float)
    return taylor_array(series, ks, 0, level)[0].reshape(ks.shape)


def taylor_array(series: SpectralSeries, ks: np.ndarray, order: int, level: int = 0) -> np.ndarray:
    """Taylor coefficients of level ``level``, ``g_m = g^(m) / s0**m``, about
    each point of ``ks``, flattened, read off level 0.

    Row i holds ``c_i = g_m^(i)(x) / (s0**i * i!)``, so that ``g_m(x +
    u/s0) = sum_i c_i * u**i`` up to a remainder of at most ``(1 + sum a_j
    r_j**(m+order+1)) * |u|**(order+1) / (order+1)!``.  With n = m + i, even
    n give ``+-(cos t0 - sum a_j r_j**n cos t_j) / i!`` and odd n ``+-(sin
    t0 - sum a_j r_j**n sin t_j) / i!`` with level 0's angles t, the signs
    following n mod 4, so one cosine and one sine of each term angle give
    every row of every level.  Row 0 is the ``evaluate_array`` value, and
    ``(i + 1) * c_(i+1)`` is row i of level m + 1.

    A series with bond structure and more than twice as many terms as
    bonds (:func:`_by_bonds`) takes its term phasors from
    :func:`_term_phasors`: one cosine and one sine per bond and point and
    one complex multiply per node of the product plan.  The real part of
    one complex matrix product of the phasors with weights turned by the
    term phases (:func:`_turned_weights`) then gives every row.  Any other
    series takes a cosine and a sine of each term angle, with one matrix
    product per row parity.  Either way, points go through in blocks whose
    temporary arrays hold at most ``EVAL_BLOCK`` complex entries.

    Rounding.  With u = eps/2, a bond angle ``S_b x`` errs by at most
    ``u S_b |x|``, and since the leading node is the conjugate of the bond
    factors' product, node j's angle takes each bond's error ``eps_jb``
    times: at most ``u sum_b |eps_jb| S_b |x| <= u s0 |x|``.  The cosines
    and sines, the squares, the B - 1 multiplies of the leading node and
    the at most 2B levels of the tree add about ``3 eps`` each, so a node
    is within ``eps (s0 |x| / 2 + 9B + 6)`` of ``exp(-i kappa'_j x)``.  The
    drift ``d_j`` of the float action from the bond sum, at most
    ``1.5 eps s0``, turns the phasor by ``d_j x``: row 0 corrects that to
    first order, leaving ``(d_j x)**2 / 2``, below ``eps s0 |x|`` while
    ``eps s0 |x| < 1``, so the value is as close to the float series as
    the per-term kernel, whose angles err by ``eps s_j |x|``.  Other rows
    keep the drift: each phasor within ``eps (2 s0 |x| + 9B + 6)``, inside
    the ``4 eps (s0 |x| + J + 30)`` per unit amplitude that the solver's
    certificate allows for rounding, summation over the J terms included
    (``9B + 6 + J/2 <= 4 (J + 30)`` for J > 2B and B up to 57).
    """
    x = np.asarray(ks, dtype=float).ravel()
    s0 = series.leading_action
    actions, amps, phases = series.arrays
    bonds = series.bonds
    # Rows 0, 2, ... take the trig function of n = level, level + 2, ...
    first, other = (np.cos, np.sin) if level % 2 == 0 else (np.sin, np.cos)
    c = np.empty((order + 1, x.size))
    # The leading angle is built in row 0, so a long array of points is
    # held once, not three times.
    np.multiply(s0, x, out=c[0])
    c[0] += series.leading_phase
    if order:
        c[3::2] = other(c[0], out=c[1])
    first(c[0], out=c[0])
    if order:
        c[2::2] = c[0]
    if _by_bonds(series):
        rw = series._bond_weights.get((level, order))
        if rw is None:
            rw = series._bond_weights[level, order] = _turned_weights(series, level, order)
        rows = order + 1
        # A block holds its node phasors with, in turn, the bond factors,
        # one layer's gathered parents and the sums: complex entries within
        # EVAL_BLOCK, as the cosines and sines of the loop below.
        width = bonds.parents.size + max(2 * bonds.actions.size, bonds.widest, rows + 1)
        step = max(1, EVAL_BLOCK // width)
        for start in range(0, x.size, step):
            block = slice(start, start + step)
            phasors = _term_phasors(series, x[block])
            sums = (rw @ phasors).real
            del phasors
            c[:, block] -= sums[:rows]
            sums[rows] *= x[block]
            c[0, block] -= sums[rows]
            del sums
    else:
        w = amps * (actions / s0) ** np.arange(level, level + order + 1)[:, None]
        step = max(1, EVAL_BLOCK // max(1, len(amps)))
        for start in range(0, x.size, step):
            block = slice(start, start + step)
            angles = np.outer(actions, x[block])
            angles += phases[:, None]
            values = first(angles)
            c[0, block] -= w[0] @ values
            if order:
                c[2::2, block] -= w[2::2] @ values
                other(angles, out=angles)
                c[1::2, block] -= w[1::2] @ angles
            del angles, values  # free this block's arrays before the next one's
    # cos(t + n*pi/2) is -sin t, -cos t, +sin t, +cos t for n = 1, 2, 3, 4 mod 4.
    if order or level % 4 in (1, 2):
        i = np.arange(order + 1)
        sign = np.where((level + i - 1) % 4 < 2, -1.0, 1.0)
        c *= (sign / np.cumprod(np.maximum(i, 1), dtype=float))[:, None]
    return c


def _by_bonds(series: SpectralSeries) -> bool:
    """Whether :func:`taylor_array` builds the term phasors from bond phasors:
    for a series with bond structure and more terms than twice its bonds.
    With fewer terms, one cosine and one sine per term is less trig than
    per bond (the three-star: 3 terms, 3 bonds) and no complex multiply."""
    return series.bonds is not None and 2 * series.bonds.actions.size < len(series.terms)


def _turned_weights(series: SpectralSeries, level: int, order: int) -> np.ndarray:
    """Complex weights of the node phasors in :func:`taylor_array`'s bond kernel.

    Taylor row i of level ``level`` weights term j by ``w_j = a_j r_j**n``,
    n = ``level`` + i.  The node of term j holds ``q_j = exp(-i kappa'_j
    x)`` (:func:`_term_phasors`), with ``kappa'_j = sum_b eps_jb S_b`` the
    bond sum, so with the turned weight ``u_j = w_j i**(n % 2) exp(-i
    phi_j)`` the row sums ``Re(u_j q_j)``: ``w_j cos t_j`` for even n and
    ``w_j sin t_j`` for odd n, up to the drift ``d_j = kappa_j - kappa'_j``
    (``BondTerms.drift``).  One more row, ``-i d_j u_j`` at n = ``level``,
    corrects row 0 for its first-order drift per unit of x.  Each weight
    sits at its term's node, with 0 at every other node.

    Every row depends on n alone, so the series keeps one table of the
    Taylor and drift weights of n = 0, 1, ..., and rebuilds it whole when
    a request reaches past its end: a power table of one row would square
    where a longer one calls ``pow``.
    """
    bonds = series.bonds
    stop = level + order + 1
    table = series._bond_weights.get(None)
    if table is None or table.shape[1] < stop:
        actions, amps, phases = series.arrays
        w = amps * (actions / series.leading_action) ** np.arange(stop)[:, None] * np.exp(-1j * phases)
        w[1::2] *= 1j  # i**(n % 2), exactly
        table = series._bond_weights[None] = np.stack((w, -1j * bonds.drift * w))
    rw = np.zeros((order + 2, bonds.parents.size), dtype=complex)
    rw[:, bonds.nodes] = np.concatenate((table[0, level:stop], table[1, level : level + 1]))
    return rw


def _term_phasors(series: SpectralSeries, x: np.ndarray) -> np.ndarray:
    """Conjugate phasors of the nodes of the series' bond plan at ``x``.

    The bond factors ``exp(i S_b x)``, the conjugates of ``z_b``, take one
    cosine and one sine per bond and point, their squares one complex
    multiply.  Row 0 is ``exp(-i S0 x)`` as the conjugate of their product,
    so that the rounding of the factors of the bonds a term keeps cancels
    from its angle.  Every other node first takes its factor, all in one
    gather; then each layer gathers its parents and multiplies them in.
    The node of term j ends up holding ``exp(-i kappa'_j x)``, with
    ``kappa'_j = sum_b eps_jb S_b``.
    """
    bonds = series.bonds
    n_bonds = bonds.actions.size
    angles = np.multiply.outer(bonds.actions, x)
    factors = np.empty((2 * n_bonds, x.size), dtype=complex)
    np.cos(angles, out=factors[:n_bonds].real)
    np.sin(angles, out=factors[:n_bonds].imag)
    del angles
    np.multiply(factors[:n_bonds], factors[:n_bonds], out=factors[n_bonds:])
    nodes = np.empty((bonds.parents.size, x.size), dtype=complex)
    np.multiply.reduce(factors[:n_bonds], axis=0, out=nodes[0])
    np.conjugate(nodes[0], out=nodes[0])
    factors.take(bonds.factors[1:], axis=0, out=nodes[1:], mode="clip")
    del factors
    gathered = np.empty((bonds.widest, x.size), dtype=complex)
    for start, stop in bonds.layers:
        up = gathered[: stop - start]
        nodes[:start].take(bonds.parents[start:stop], axis=0, out=up, mode="clip")
        np.multiply(nodes[start:stop], up, out=nodes[start:stop])
    return nodes


def derivative_series(series: SpectralSeries) -> SpectralSeries:
    """Next derivative level: d/dk followed by division by the leading action.

    Amplitudes scale by action/leading_action and every phase advances by
    pi/2.  Actions do not change, so no two terms can merge; only a term
    whose amplitude becomes exactly 0 (the constant term) leaves, and the
    result is again a canonical series one level up.  It carries no bond
    rows; no solve calls it, as every level is read off level 0 instead.
    """
    s0, half = series.leading_action, 0.5 * math.pi
    terms = (
        TrigTerm(t.action, t.amplitude * (t.action / s0), _wrap_phase(t.phase + half))
        for t in series.terms
    )
    return SpectralSeries(
        s0, _wrap_phase(series.leading_phase + half), tuple(t for t in terms if t.amplitude > 0.0)
    )


def regularity_sum(series: SpectralSeries) -> float:
    """Sum of term amplitudes; the series is regular iff this is below 1."""
    return math.fsum(series.arrays[1].tolist())
