"""Scaling metric graphs and the construction of their secular cosine series.

A scaling graph carries a potential ``U_b = lambda_b * E`` on each bond and
a delta coupler of strength ``lambda_v * k`` on each vertex.  Both choices
scale with energy, which keeps every scattering amplitude independent of k:
the bond only contributes the constant action ``S_b = L_b * sqrt(1 -
lambda_b)`` per unit wavenumber, and the vertex matrix depends on the
dimensionless strength alone.  The secular condition det(I - D(k) Sigma) = 0,
with D(k) the diagonal of directed-bond phase factors exp(i S k) and Sigma
the unitary bond-to-bond scattering matrix, is therefore a finite sum of
exponentials in k with constant coefficients.  Both directions of bond b
carry the same factor z_b = exp(i S_b k), so the determinant is a
polynomial of degree at most 2 in each z_b; its coefficients follow exactly
from its values on a grid of three nodes per bond.  A bond ending at a
vertex that only reflects (degree 1, or Dirichlet) enters through z_b^2
alone, so its axis of the grid needs two nodes, not three.  Every vertex
matrix has the form c_v J - I, so each grid value is the product of
prod_b (1 - z_b^2) and a determinant over the vertices that are not
Dirichlet, far smaller than the 2B x 2B one.  Because Sigma is
unitary, the coefficients come in mirror pairs c_(2-n) = det Sigma *
conj(c_n), so centering the total actions on S0 = sum_b S_b and rotating by
one unimodular constant folds each pair into a real cosine, and the
cosines of one action sum into one: the result is the canonical cosine
series consumed by the solver.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .errors import (
    DegreeMismatch,
    RealificationFailure,
    SizeCapExceeded,
    ValidationError,
)
from .series import MERGE_TOL, BondTerms, SpectralSeries, canonicalize, is_finite_real

# Cap on directed bonds (2 per undirected bond).  It bounds the descent and
# the k = 0 floor, not the determinant: on a 2-vCPU Xeon VM (one BLAS
# thread) 10-bond graphs without leaves expand in 0.065-0.16 s, while
# ``descend`` on (20, 100] takes 0.16-0.24 s and 2.0-2.1 s for 12- and
# 14-bond Dirichlet stars (1,585 and 6,475 terms; term phasors from bond
# phasors), and the 14-bond star raises DegenerateSpectrum on any window
# whose padding reaches k = 0.
MAX_DIRECTED_BONDS = 20
# Coefficients below FLOOR_UNITS * 2B * eps * max|det| over the grid are
# exact zeros.  On stars, wheels and the test graphs (B <= 8) the
# interpolated coefficients differed from an exact subset expansion by at
# most 0.6 of these units (2.4e-15), while the smallest true coefficient was
# 3.5e-2: the floor sits 25x above the noise and ten decades below any
# coefficient seen.  The Kirchhoff star needs it: its principal minors of
# size B/2 vanish exactly.
FLOOR_UNITS = 16
# Grid points per batched determinant call at most, which bounds its memory.
GRID_CHUNK = 3**5
# Mirror-paired coefficients must be conjugate within this tolerance.
CONJUGATE_TOL = 1e-9

VertexCondition = Literal["dirichlet", "kirchhoff", "scaling_delta"]
_CONDITIONS = ("dirichlet", "kirchhoff", "scaling_delta")


@dataclass(frozen=True)
class VertexSpec:
    """Vertex with a matching condition; ``delta_strength`` is the
    dimensionless coupler strength and only meaningful for scaling_delta."""

    id: int
    condition: VertexCondition
    delta_strength: float = 0.0


@dataclass(frozen=True)
class BondSpec:
    """Bond between two vertices with a scaling potential fraction."""

    endpoints: tuple[int, int]
    length: float
    potential_fraction: float = 0.0

    @property
    def action(self) -> float:
        """Phase length L*sqrt(1 - lambda); the accumulated phase is action*k."""
        return self.length * math.sqrt(1.0 - self.potential_fraction)


@dataclass(frozen=True)
class QuantumGraph:
    """Validated scaling graph; construction checks every invariant eagerly."""

    vertices: tuple[VertexSpec, ...]
    bonds: tuple[BondSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "bonds", tuple(self.bonds))
        violations = validate_graph(self.vertices, self.bonds)
        if violations:
            if 2 * len(self.bonds) > MAX_DIRECTED_BONDS:
                raise SizeCapExceeded(violations)
            raise ValidationError(violations)

    def degree(self, vertex_id: int) -> int:
        d = 0
        for b in self.bonds:
            d += (b.endpoints[0] == vertex_id) + (b.endpoints[1] == vertex_id)
        return d


def _is_id(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def validate_graph(vertices, bonds) -> list[str]:
    """Collect every violated graph invariant; empty list means valid.

    Messages are anchored at config paths, where ``lambda`` is a vertex's
    delta strength and ``potential_lambda`` a bond's potential fraction."""
    problems: list[str] = []
    ids = [v.id for v in vertices if _is_id(v.id)]
    if len(set(ids)) != len(ids):
        problems.append("graph.vertices: vertex ids must be unique")
    known = set(ids)
    if not vertices:
        problems.append("graph.vertices: at least one vertex is required")
    for i, v in enumerate(vertices):
        path = f"graph.vertices[{i}]"
        if not _is_id(v.id):
            problems.append(f"{path}.id: integer id required, got {v.id!r}")
        if v.condition not in _CONDITIONS:
            problems.append(f"{path}: unknown condition {v.condition!r}")
        if not is_finite_real(v.delta_strength):
            problems.append(f"{path}.lambda: delta strength must be a finite number, got {v.delta_strength!r}")
        elif v.condition != "scaling_delta" and v.delta_strength != 0.0:
            problems.append(f"{path}: delta strength is only meaningful for scaling_delta vertices")
    if not bonds:
        problems.append("graph.bonds: at least one bond is required")
    if 2 * len(bonds) > MAX_DIRECTED_BONDS:
        problems.append(
            f"graph.bonds: {2 * len(bonds)} directed bonds exceed the expansion cap of {MAX_DIRECTED_BONDS}"
        )
    for i, b in enumerate(bonds):
        path = f"graph.bonds[{i}]"
        if not (is_finite_real(b.length) and b.length > 0.0):
            problems.append(f"{path}.length: finite number > 0 required, got {b.length!r}")
        if not (is_finite_real(b.potential_fraction) and b.potential_fraction < 1.0):
            problems.append(
                f"{path}.potential_lambda: potential_fraction must be < 1 "
                f"(got {b.potential_fraction!r}; fractions >= 1 create classically forbidden bonds)"
            )
        ends = b.endpoints
        if not (isinstance(ends, (tuple, list)) and len(ends) == 2 and all(map(_is_id, ends))):
            problems.append(f"{path}: two integer vertex ids ('from' and 'to') required, got {ends!r}")
            continue
        for e in ends:
            if e not in known:
                problems.append(f"{path}: endpoint {e!r} is not a vertex id")

    # Connectivity over the vertices actually referenced; degree >= 1 everywhere.
    if vertices and bonds and not problems:
        parent = {v.id: v.id for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        degree = {v.id: 0 for v in vertices}
        for b in bonds:
            u, w = b.endpoints
            degree[u] += 1
            degree[w] += 1
            parent[find(u)] = find(w)
        isolated = sorted(v for v, d in degree.items() if d == 0)
        if isolated:
            problems.append(f"graph: vertices {isolated} have degree 0")
        elif len({find(v.id) for v in vertices}) > 1:
            problems.append("graph: graph is not connected")
    return problems


def vertex_coupling(vertex: VertexSpec, degree: int) -> complex:
    """The constant c in the vertex matrix c*J - I of every condition.

    Dirichlet vertices reflect with amplitude -1 on every channel, so c = 0.
    A Kirchhoff vertex has c = 2/degree, and a scaling delta coupler of
    dimensionless strength ``lam`` has c = 2/(degree + i*lam), the
    k-independent limit of the delta vertex whose physical strength grows
    as lam*k.
    """
    if degree < 1:
        raise DegreeMismatch(f"vertex degree must be >= 1, got {degree}")
    if vertex.condition == "dirichlet":
        return 0.0
    lam = vertex.delta_strength if vertex.condition == "scaling_delta" else 0.0
    return 2.0 / (degree + 1j * lam)


def vertex_scattering(vertex: VertexSpec, degree: int) -> np.ndarray:
    """Unitary vertex scattering matrix c*J - I of a degree-``degree``
    vertex, with c from ``vertex_coupling``."""
    c = vertex_coupling(vertex, degree)
    return np.full((degree, degree), c, dtype=complex) - np.eye(degree, dtype=complex)


class DeterminantTerms(NamedTuple):
    """The kept monomials of det(I - D(k) Sigma) = sum_j c_j * exp(i k * <n_j, actions>).

    ``actions`` holds the action S_b of each bond, and n_jb, row j of
    ``exponents`` in {0,1,2}^B, counts how many of bond b's two directions
    monomial j traverses.  ``indices`` holds each monomial's point on the
    coefficient grid of ``size`` points, in ascending order; the mirror
    n -> 2 - n of point p is point size - 1 - p.  Coefficients with
    magnitude below ``floor`` are zeros and are not kept.
    """

    coefficients: np.ndarray
    exponents: np.ndarray
    indices: np.ndarray
    size: int
    actions: tuple[float, ...]
    floor: float


def bond_scattering_matrix(graph: QuantumGraph) -> np.ndarray:
    """The 2B x 2B unitary map from incoming to outgoing directed bonds.

    Directed bond 2b runs from endpoints[0] to endpoints[1] of bond b, and
    2b+1 runs back, so head(j) = tail(j ^ 1).  Entry [i, j] is the
    amplitude for leaving vertex head(j) = tail(i) along i after arriving
    along j: the entry of the vertex matrix c J - I, that is c - 1 on the
    way back (i = j ^ 1) and c otherwise, with c the ``vertex_coupling`` of
    tail(i).  Entries between bonds that do not meet are 0.
    """
    index = {v.id: n for n, v in enumerate(graph.vertices)}
    coupling = np.array([vertex_coupling(v, graph.degree(v.id)) for v in graph.vertices], dtype=complex)
    tail = np.array([index[e] for b in graph.bonds for e in b.endpoints])
    back = np.arange(tail.size) ^ 1
    meets = tail[:, None] == tail[back]
    return np.where(meets, coupling[tail, None] - (back[:, None] == np.arange(tail.size)), 0)


# Grid nodes of an axis as z_b and w_b = z_b^2.  A three-point axis takes
# z_b in i*{1, omega, omega^2}, omega = exp(2 pi i / 3); a reflecting axis
# takes w_b in {i, -i}.  Neither meets the poles w_b = 1 of K (see
# transfer_determinant).  The nodes are written in closed form, so each w_b is
# the rounded square and not the square of a rounded z_b; against 40-digit
# coefficients of the small test graphs, squaring in floats instead raised
# the worst error from 0.9e-15 to 1.4e-15.
_HALF_SQRT3 = math.sqrt(3.0) / 2
_Z3 = np.array([1j, -_HALF_SQRT3 - 0.5j, _HALF_SQRT3 - 0.5j])
_W3 = np.array([-1.0, 0.5 + _HALF_SQRT3 * 1j, 0.5 - _HALF_SQRT3 * 1j])
_W2 = np.array([1j, -1j])
_Z2 = np.sqrt(_W2)
# Inverse transforms, rows the nodes and columns the powers of z_b (of w_b on
# a reflecting axis): the nodes of an axis are the radix-th roots of one
# unimodular number, so their inverse Vandermonde matrix is
# conj(node)^power / radix.
_INV3 = np.stack([np.ones(3), _Z3.conj(), _W3.conj()], axis=1) / 3
_INV2 = np.stack([np.ones(2), _W2.conj()], axis=1) / 2


def transfer_determinant(graph: QuantumGraph) -> DeterminantTerms:
    """Coefficients of det(I - D Sigma) as a polynomial in z_b = exp(i S_b k).

    z_b sits on the two rows of D(z) Sigma that belong to bond b, so the
    determinant has degree at most 2 in every z_b, and its values on a grid
    of three nodes per bond determine it exactly: an inverse transform of
    length 3 along each bond's axis returns every coefficient c_n, n in
    {0,1,2}^B.  A bond is reflecting when one of its ends is a Dirichlet or
    degree-1 vertex: a wave arriving there only turns back, so n_b is 0 or 2
    and the determinant is linear in w_b = z_b^2.  Such an axis needs two
    nodes, so R reflecting bonds shrink the grid to 2^R * 3^(B - R) points.

    Each grid value comes from a V' x V' determinant over the V' vertices
    that are not Dirichlet, not from the 2B x 2B one.  Every vertex matrix is
    c_v J - I, so Sigma = (U C U^T - I) R, with R reversing each bond, U
    mapping a directed bond to its tail vertex and C = diag(c_v).  The matrix
    determinant lemma gives

        det(I - D Sigma) = prod_b (1 - z_b^2) * det(I - C K(z)),

    where K = U^T R (I + D R)^-1 D U gets z_b^2 / (z_b^2 - 1) on the diagonal
    for each end of bond b and -z_b / (z_b^2 - 1) at (p, q) and (q, p) for a
    bond p-q (a loop gets all four at (p, p)).  Rows of C vanish at
    Dirichlet vertices, which therefore drop out.  The nodes keep z_b^2 away
    from 1; on a reflecting axis w_b is set exactly, and z_b = sqrt(w_b)
    only enters through the product of a leaf's two off-diagonal entries.
    """
    bonds = graph.bonds
    actions = tuple(b.action for b in bonds)
    n_bonds = len(actions)
    degree = {v.id: graph.degree(v.id) for v in graph.vertices}
    coupling = {v.id: vertex_coupling(v, degree[v.id]) for v in graph.vertices}
    slot = {v: i for i, v in enumerate(v for v, c in coupling.items() if c != 0)}
    order = len(slot)
    reflects = np.array([
        any(coupling[e] == 0 or degree[e] == 1 for e in b.endpoints) for b in bonds
    ], dtype=bool)

    # (C K)[p, q] is linear in the per-bond values diag_b and off_b: row b
    # (diagonal) and row B + b (off-diagonal) of ``spread`` place them.
    spread = np.zeros((2 * n_bonds, order * order), dtype=complex)
    for bi, b in enumerate(bonds):
        p, q = b.endpoints
        for e, f in ((p, q), (q, p)):
            if e in slot:
                spread[bi, slot[e] * (order + 1)] += coupling[e]
                if f in slot:
                    spread[n_bonds + bi, slot[e] * order + slot[f]] += coupling[e]

    # Per-axis tables of diag_b, off_b and the factor 1 - w_b over the
    # digits; a reflecting axis leaves digit 2 unused.
    w = np.where(reflects[:, None], np.append(_W2, 0.0), _W3)
    z = np.where(reflects[:, None], np.append(_Z2, 0.0), _Z3)
    per_axis = np.stack((w / (w - 1.0), -z / (w - 1.0), 1.0 - w))
    radix = np.where(reflects, 2, 3)
    step = np.where(reflects, 2, 1)  # n_b = 2 * digit on a reflecting axis
    # Grid point p has digit (p // place[b]) % radix[b] on bond b's axis.
    place = np.cumprod(np.append(1, radix[:0:-1]))[::-1]
    size = int(np.prod(radix))
    # A chunk spans the trailing axes whose points fit in GRID_CHUNK: their
    # digits are gathered once, and each chunk sets those of the leading axes.
    lead = n_bonds - int(np.searchsorted(np.cumprod(radix[::-1]), GRID_CHUNK, side="right"))
    inner = int(np.prod(radix[lead:]))
    axes = np.arange(n_bonds)
    table = per_axis[:, axes, np.arange(inner)[:, None] // place % radix]
    identity = np.eye(order, dtype=complex).ravel()
    grid = np.empty(size, dtype=complex)
    for start in range(0, size, inner):
        table[:, :, :lead] = per_axis[:, axes[:lead], start // place[:lead] % radix[:lead]][:, None]
        mats = (identity - np.concatenate(table[:2], axis=1) @ spread).reshape(inner, order, order)
        grid[start:start + inner] = np.prod(table[2], axis=1) * np.linalg.det(mats)

    # Each pass transforms the leading axis and rotates it to the back.
    coeffs = grid
    for b in range(n_bonds):
        coeffs = coeffs.reshape(radix[b], -1).T @ (_INV2 if reflects[b] else _INV3)
    coeffs = coeffs.ravel()
    floor = FLOOR_UNITS * 2 * n_bonds * np.finfo(float).eps * float(np.abs(grid).max())
    kept = np.flatnonzero(np.abs(coeffs) >= floor)
    return DeterminantTerms(coeffs[kept], kept[:, None] // place % radix * step, kept, size, actions, floor)


def transfer_matrix(graph: QuantumGraph, k) -> np.ndarray:
    """The unitary bond map U(k) = D(k) Sigma, one 2B x 2B matrix per
    wavenumber: a float ``k`` gives one matrix, an array of k a stack of
    them with the array's shape in front.  Its eigenphases rise with k, and
    their wrapped sum gives the eigenphase count of ``oracle.verify_spectrum``,
    which starts at ``solver.POSITIVE_FLOOR``: an eigenphase at 0 for k = 0
    has risen clear of rounding there.
    """
    sigma = bond_scattering_matrix(graph)
    phases = np.exp(1j * np.repeat([b.action for b in graph.bonds], 2) * np.asarray(k)[..., None])
    return phases[..., :, None] * sigma


@dataclass(frozen=True)
class SecularExpansion:
    """Secular series plus the constants of its construction.

    ``normalization * exp(-i*theta*k) * det(I - D(k) Sigma)`` is real for
    real k and equals the canonical series value, which is what the
    reconstruction checks assert.
    """

    series: SpectralSeries
    theta: float
    normalization: complex
    expo: DeterminantTerms


def expand_secular(graph: QuantumGraph) -> SecularExpansion:
    """Full secular construction: expansion, centering, realification.

    Sigma is unitary, so det(I - U) = det U * conj(det(I - U)) for U = D Sigma,
    which reads c_(2-n) = det Sigma * conj(c_n) coefficient by coefficient.
    c_0 = 1 and c_(2,...,2) = det Sigma are unimodular mirrors, so the total
    actions are centered on theta = S0 = sum_b S_b.  A unimodular rotation
    makes every mirror pair complex conjugate (the leading phase is placed
    within a quarter turn of the real axis); each coefficient at centered
    action kappa >= 0 is averaged with its conjugated mirror and, the
    leading amplitude normalized to one, handed to :func:`canonicalize` as
    one raw term, a cosine at kappa or its real part at kappa = 0.
    ``canonicalize`` merges the terms of one action into one cosine.
    """
    expo = transfer_determinant(graph)
    n_bonds = len(expo.actions)
    theta = math.fsum(expo.actions)
    if theta <= MERGE_TOL:
        raise RealificationFailure(
            f"no cosine above the constant term: the bond actions sum to {theta!r}, "
            f"within {MERGE_TOL} of zero"
        )
    # The mirror 2 - n of every grid point is the point of the reversed
    # grid; a coefficient below the floor counts as 0.
    grid = np.zeros(expo.size, dtype=complex)
    grid[expo.indices] = expo.coefficients
    mirrors = grid[::-1][expo.indices]

    # c_top must rotate onto conj(c_0): two unimodular solutions, pi apart.
    # The leading monomial alone has kappa = theta: fsum(2 S) is 2 theta exactly.
    c_0, c_top = complex(grid[0]), complex(grid[-1])
    rotation = cmath.exp(0.5j * cmath.phase(c_0.conjugate() / c_top))
    lead = rotation * c_top
    # Keep the leading phase within a quarter turn of zero; on the pure
    # imaginary boundary prefer the phase -pi/2.
    boundary = 1e-12 * abs(lead)
    if lead.real < -boundary or (abs(lead.real) <= boundary and lead.imag > 0.0):
        rotation = -rotation

    r_lead = 0.5 * (rotation * c_top + (rotation * c_0).conjugate())
    lead_amp = abs(r_lead)
    scale = 2.0 * lead_amp
    # Monomials at kappa < -MERGE_TOL only enter as mirrors.  A float dot
    # product errs by less than 2B eps theta, so a screen 4B eps theta wide
    # keeps every other one, and math.fsum gives their kappa.
    screen = theta - MERGE_TOL - 4 * n_bonds * np.finfo(float).eps * theta
    near = np.flatnonzero(expo.exponents @ np.array(expo.actions) >= screen)
    kappas = np.array([math.fsum(row) - theta for row in (expo.exponents[near] * expo.actions).tolist()])
    half, kappas = near[kappas >= -MERGE_TOL], kappas[kappas >= -MERGE_TOL]
    p, q = rotation * expo.coefficients[half], np.conj(rotation * mirrors[half])
    unpaired = np.flatnonzero(np.abs(p - q) > CONJUGATE_TOL)
    if unpaired.size:
        j = unpaired[0]
        raise RealificationFailure(
            f"coefficients of exponents {tuple(expo.exponents[half[j]].tolist())} and their mirror "
            f"are not conjugate: {complex(p[j])!r} vs {complex(q[j])!r}"
        )

    # The leading monomial, last on the grid, is r_lead.  Each term's action
    # is sum_b (n_b - 1) S_b over the exponents of the first monomial at its
    # action; the constant term's row, after the monomials', is 0.
    half, kappas = half[:-1], kappas[:-1]
    eps_rows = np.vstack((expo.exponents[half] - 1, np.zeros(n_bonds, dtype=int)))
    rows = {0.0: len(half)}
    raw_terms = []
    pairs = zip(kappas.tolist(), expo.coefficients[half].tolist(), mirrors[half].tolist())
    for j, (kappa, c, m) in enumerate(pairs):
        r = 0.5 * (rotation * c + (rotation * m).conjugate())
        if abs(kappa) <= MERGE_TOL:
            raw_terms.append((0.0, -r.real / scale, 0.0))
        else:
            raw_terms.append((kappa, -abs(r) / lead_amp, math.atan2(r.imag, r.real)))
            rows.setdefault(kappa, j)
    series = canonicalize(theta, math.atan2(r_lead.imag, r_lead.real), raw_terms)
    bond_rows = eps_rows[[rows[t.action] for t in series.terms]]
    bonds = BondTerms.from_rows(expo.actions, bond_rows, series.arrays[0])
    series = SpectralSeries(series.leading_action, series.leading_phase, series.terms, bonds)
    return SecularExpansion(series=series, theta=theta, normalization=rotation / scale, expo=expo)


def secular_series(graph: QuantumGraph) -> SpectralSeries:
    """Canonical secular cosine series of a scaling graph."""
    return expand_secular(graph).series
