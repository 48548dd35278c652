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
from its values on the grid of cube roots of unity.  A bond ending at a
vertex that only reflects (degree 1, or Dirichlet) enters through z_b^2
alone, so its axis of the grid needs two nodes, not three.  Because Sigma is
unitary, the coefficients come in mirror pairs c_(2-n) = det Sigma *
conj(c_n), so centering the total actions on S0 = sum_b S_b and rotating by
one unimodular constant folds each pair into a real cosine: the result is
the canonical cosine series consumed by the solver.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    DegreeMismatch,
    RealificationFailure,
    SizeCapExceeded,
    ValidationError,
)
from .series import MERGE_TOL, SpectralSeries, canonicalize

# Cap on directed bonds (2 per undirected bond).  The determinant is
# interpolated on 2^R * 3^(B - R) grid points for R reflecting bonds: on a
# 2-vCPU Xeon VM a 10-bond Dirichlet star (R = B) expands in about 0.02 s,
# an 8-bond wheel (R = 0) in about 0.04 s, so a 10-bond graph without
# leaves (3^10 points) takes about 0.5 s.
MAX_DIRECTED_BONDS = 20
# Coefficients below FLOOR_UNITS * 2B * eps * max|det| over the grid are
# exact zeros.  On stars, wheels and the test graphs (B <= 8) the
# interpolated coefficients differed from an exact subset expansion by at
# most 0.6 of these units (2.4e-15), while the smallest true coefficient was
# 3.5e-2: the floor sits 25x above the noise and ten decades below any
# coefficient seen.  The Kirchhoff star needs it: its principal minors of
# size B/2 vanish exactly.
FLOOR_UNITS = 16
# Grid points per batched determinant call, which bounds its memory.
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
            if any("directed bonds" in v for v in violations):
                raise SizeCapExceeded(violations)
            raise ValidationError(violations)

    def degree(self, vertex_id: int) -> int:
        d = 0
        for b in self.bonds:
            d += (b.endpoints[0] == vertex_id) + (b.endpoints[1] == vertex_id)
        return d


def validate_graph(vertices, bonds, path: str = "graph") -> list[str]:
    """Collect every violated graph invariant; empty list means valid."""
    problems: list[str] = []
    ids = [v.id for v in vertices]
    if len(set(ids)) != len(ids):
        problems.append(f"{path}.vertices: vertex ids must be unique")
    known = set(ids)
    if not vertices:
        problems.append(f"{path}.vertices: at least one vertex is required")
    for i, v in enumerate(vertices):
        if v.condition not in _CONDITIONS:
            problems.append(
                f"{path}.vertices[{i}]: unknown condition {v.condition!r}"
            )
        if not math.isfinite(v.delta_strength):
            problems.append(f"{path}.vertices[{i}]: delta strength must be finite")
        elif v.condition != "scaling_delta" and v.delta_strength != 0.0:
            problems.append(
                f"{path}.vertices[{i}]: delta strength is only meaningful for scaling_delta vertices"
            )
    if not bonds:
        problems.append(f"{path}.bonds: at least one bond is required")
    if 2 * len(bonds) > MAX_DIRECTED_BONDS:
        problems.append(
            f"{path}.bonds: {2 * len(bonds)} directed bonds exceed the expansion cap of {MAX_DIRECTED_BONDS}"
        )
    for i, b in enumerate(bonds):
        if not (math.isfinite(b.length) and b.length > 0.0):
            problems.append(f"{path}.bonds[{i}].length: must be > 0, got {b.length!r}")
        if not math.isfinite(b.potential_fraction) or b.potential_fraction >= 1.0:
            problems.append(
                f"{path}.bonds[{i}].potential_lambda: potential_fraction must be < 1 "
                f"(got {b.potential_fraction!r}; fractions >= 1 create classically forbidden bonds)"
            )
        for e in b.endpoints:
            if e not in known:
                problems.append(f"{path}.bonds[{i}]: endpoint {e!r} is not a vertex id")

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
            problems.append(f"{path}: vertices {isolated} have degree 0")
        elif len({find(v.id) for v in vertices}) > 1:
            problems.append(f"{path}: graph is not connected")
    return problems


def vertex_scattering(vertex: VertexSpec, degree: int) -> np.ndarray:
    """Unitary vertex scattering matrix for a degree-``degree`` vertex.

    Dirichlet vertices reflect with amplitude -1 on every channel.  A
    Kirchhoff vertex or a scaling delta coupler of dimensionless strength
    ``lam`` mixes channels as 2/(degree + i*lam) - delta_ij, which is the
    k-independent limit of the delta vertex whose physical strength grows
    as lam*k.
    """
    if degree < 1:
        raise DegreeMismatch(f"vertex degree must be >= 1, got {degree}")
    if vertex.condition == "dirichlet":
        return -np.eye(degree, dtype=complex)
    lam = vertex.delta_strength if vertex.condition == "scaling_delta" else 0.0
    c = 2.0 / (degree + 1j * lam)
    return np.full((degree, degree), c, dtype=complex) - np.eye(degree, dtype=complex)


@dataclass
class ExpoPolynomial:
    """Exponential sum  sum_n c_n * exp(i k * <n, actions>)  with n in {0,1,2}^B.

    ``actions`` holds the action S_b of each bond, and n_b counts how many of
    bond b's two directions a monomial traverses.  Coefficients with
    magnitude below ``floor`` are zeros and are never stored.
    """

    coefficients: dict[tuple[int, ...], complex]
    actions: tuple[float, ...]
    floor: float

    def total_action(self, exponents: tuple[int, ...]) -> float:
        return math.fsum(n * s for n, s in zip(exponents, self.actions))


def bond_scattering_matrix(graph: QuantumGraph) -> np.ndarray:
    """The 2B x 2B unitary map from incoming to outgoing directed bonds.

    Directed bond 2b runs from endpoints[0] to endpoints[1] of bond b, and
    2b+1 runs back.  Entry [i, j] is the amplitude for leaving vertex
    head(j) = tail(i) along i after arriving along j.
    """
    n = 2 * len(graph.bonds)
    tails: dict[int, list[int]] = {v.id: [] for v in graph.vertices}
    for bi, b in enumerate(graph.bonds):
        u, w = b.endpoints
        tails[u].append(2 * bi)
        tails[w].append(2 * bi + 1)

    sigma = np.zeros((n, n), dtype=complex)
    for v in graph.vertices:
        outgoing = tails[v.id]
        local = vertex_scattering(v, len(outgoing))
        for pi, i in enumerate(outgoing):
            for pj, rev_j in enumerate(outgoing):
                sigma[i, rev_j ^ 1] = local[pi, pj]
    return sigma


_OMEGA = np.exp(2j * np.pi * np.arange(3) / 3)
# _INV_DFT[j, n] = omega^(j*(2 - n)) / 3: the inverse DFT of length 3 times
# the factor z_b^2 that det D contributes per bond (see transfer_determinant).
_INV_DFT = np.exp(2j * np.pi / 3 * np.outer(np.arange(3), 2 - np.arange(3))) / 3
# A reflecting bond's axis has the nodes z_b in {1, i}, so w_b = z_b^2 is
# +-1; rows are the nodes, columns n_b = 0, 2, with z_b^-2 folded in.
_REFLECT_NODES = np.array([1.0, 1j])
_INV_DFT_REFLECT = np.array([[0.5, 0.5], [-0.5, 0.5]])


def transfer_determinant(graph: QuantumGraph) -> ExpoPolynomial:
    """Coefficients of det(I - D Sigma) as a polynomial in z_b = exp(i S_b k).

    z_b sits on the two rows of D(z) Sigma that belong to bond b, so the
    determinant has degree at most 2 in every z_b, and its values on the
    grid z_b in {1, omega, omega^2}, omega = exp(2 pi i / 3), determine it
    exactly: an inverse DFT of length 3 along each bond's axis returns every
    coefficient c_n, n in {0,1,2}^B.  A bond is reflecting when Sigma sends
    one of its directions only into its reverse (a degree-1 or Dirichlet
    vertex at that end); every directed cycle through that direction runs
    back along the bond, so n_b is 0 or 2 and the determinant is linear in
    z_b^2.  Such an axis needs only the two nodes z_b in {1, i} and a
    length-2 transform, so R reflecting bonds shrink the grid to
    2^R * 3^(B - R) points.  The grid values come from batched LU
    determinants of det(D^-1 - Sigma) = det(I - D Sigma) / det D, which
    spares a complex product per matrix entry; det D = prod_b z_b^2 is
    folded into the per-axis transforms.
    """
    sigma = bond_scattering_matrix(graph)
    actions = tuple(b.action for b in graph.bonds)
    n_bonds = len(actions)
    n = 2 * n_bonds
    directed = np.arange(n)
    lone = np.count_nonzero(sigma, axis=0) == 1
    reflects = (lone & (sigma[directed ^ 1, directed] != 0)).reshape(n_bonds, 2).any(axis=1)
    radix = np.where(reflects, 2, 3)
    step = np.where(reflects, 2, 1)  # n_b = 2 * digit on a reflecting axis
    inverse_nodes = np.where(reflects[:, None], np.append(_REFLECT_NODES, 0.0), _OMEGA).conj()
    # Grid point p has digit (p // place[b]) % radix[b] on bond b's axis.
    place = np.cumprod(np.append(1, radix[:0:-1]))[::-1]
    size = int(np.prod(radix))
    grid = np.empty(size, dtype=complex)
    for start in range(0, size, GRID_CHUNK):
        points = np.arange(start, min(start + GRID_CHUNK, size))
        digits = points[:, None] // place % radix
        inverse_z = np.repeat(inverse_nodes[np.arange(n_bonds), digits], 2, axis=1)
        mats = np.empty((points.size, n, n), dtype=complex)
        mats[:] = -sigma
        mats[:, directed, directed] += inverse_z
        grid[start:start + points.size] = np.linalg.det(mats)

    # Each pass transforms the leading axis and rotates it to the back.
    coeffs = grid
    for b in range(n_bonds):
        coeffs = coeffs.reshape(radix[b], -1).T @ (_INV_DFT_REFLECT if reflects[b] else _INV_DFT)
    coeffs = coeffs.ravel()
    floor = FLOOR_UNITS * n * np.finfo(float).eps * float(np.abs(grid).max())
    kept = np.flatnonzero(np.abs(coeffs) >= floor)
    exponents = (kept[:, None] // place % radix * step).tolist()
    coefficients = dict(zip(map(tuple, exponents), coeffs[kept].tolist()))
    return ExpoPolynomial(coefficients=coefficients, actions=actions, floor=floor)


def transfer_matrix(graph: QuantumGraph, k: float) -> np.ndarray:
    """Numeric D(k) Sigma at wavenumber ``k`` (for cross-checks)."""
    sigma = bond_scattering_matrix(graph)
    phases = np.exp(1j * np.repeat([b.action for b in graph.bonds], 2) * k)
    return phases[:, None] * sigma


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
    expo: ExpoPolynomial


def expand_secular(graph: QuantumGraph) -> SecularExpansion:
    """Full secular construction: expansion, centering, realification.

    Sigma is unitary, so det(I - U) = det U * conj(det(I - U)) for U = D Sigma,
    which reads c_(2-n) = det Sigma * conj(c_n) coefficient by coefficient.
    c_0 = 1 and c_(2,...,2) = det Sigma are unimodular mirrors, so the total
    actions are centered on theta = S0 = sum_b S_b.  A unimodular rotation
    makes every mirror pair complex conjugate (the leading phase is placed
    within a quarter turn of the real axis); each coefficient at centered
    action kappa >= 0 is averaged with its conjugated mirror, clusters of
    equal kappa are summed into cosines, kappa = 0 into the constant, and
    the leading amplitude is normalized to one.
    """
    expo = transfer_determinant(graph)
    coefficients = expo.coefficients
    n_bonds = len(expo.actions)
    theta = math.fsum(expo.actions)

    # c_top must rotate onto conj(c_0): two unimodular solutions, pi apart.
    c_0 = coefficients[(0,) * n_bonds]
    c_top = coefficients[(2,) * n_bonds]
    rotation = cmath.exp(0.5j * cmath.phase(c_0.conjugate() / c_top))
    lead = rotation * c_top
    # Keep the leading phase within a quarter turn of zero; on the pure
    # imaginary boundary prefer the phase -pi/2.
    boundary = 1e-12 * abs(lead)
    if lead.real < -boundary or (abs(lead.real) <= boundary and lead.imag > 0.0):
        rotation = -rotation

    centered = sorted((expo.total_action(n) - theta, n) for n in coefficients)
    clusters: list[list] = []  # [smallest kappa, summed rotated coefficient]
    for kappa, n in centered:
        if kappa < -MERGE_TOL:
            continue  # looked up as the mirror of 2 - n
        p = rotation * coefficients[n]
        q = (rotation * coefficients.get(tuple(2 - b for b in n), 0.0)).conjugate()
        if abs(p - q) > CONJUGATE_TOL:
            raise RealificationFailure(
                f"coefficients of exponents {n} and their mirror are not conjugate: {p!r} vs {q!r}"
            )
        if clusters and kappa - clusters[-1][0] <= MERGE_TOL:
            clusters[-1][1] += 0.5 * (p + q)
        else:
            clusters.append([kappa, 0.5 * (p + q)])
    clusters = [(kappa, r) for kappa, r in clusters if abs(r) >= expo.floor]

    _, r_lead = clusters.pop()
    lead_amp = abs(r_lead)
    scale = 2.0 * lead_amp
    raw_terms = [
        (0.0, -r.real / scale, 0.0) if abs(kappa) <= MERGE_TOL
        else (kappa, -abs(r) / lead_amp, math.atan2(r.imag, r.real))
        for kappa, r in clusters
    ]
    series = canonicalize(theta, math.atan2(r_lead.imag, r_lead.real), raw_terms)
    return SecularExpansion(
        series=series, theta=theta, normalization=rotation / scale, expo=expo
    )


def secular_series(graph: QuantumGraph) -> SpectralSeries:
    """Canonical secular cosine series of a scaling graph."""
    return expand_secular(graph).series
