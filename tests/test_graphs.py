"""Graph model: vertex matrices, determinant expansion, realification."""

import cmath
import itertools
import math

import numpy as np
import pytest

from qgspectra import (
    BondSpec,
    QuantumGraph,
    RealificationFailure,
    SizeCapExceeded,
    ValidationError,
    VertexSpec,
    DegreeMismatch,
    expand_secular,
    scan_roots,
    secular_series,
    transfer_matrix,
    verify_spectrum,
    vertex_scattering,
)
from qgspectra.graphs import CONJUGATE_TOL, bond_scattering_matrix, transfer_determinant
from qgspectra.series import MERGE_TOL, BondTerms, canonicalize

from conftest import (
    ALL_GRAPHS,
    dirichlet_star,
    evaluate,
    make_bond_dd,
    make_loop,
    make_path4,
    make_star3,
    make_triangle_delta,
)


def numeric_det(graph, k):
    n = 2 * len(graph.bonds)
    return np.linalg.det(np.eye(n) - transfer_matrix(graph, k))


def total_actions(expo):
    """The total action <n, actions> of each kept monomial, by math.fsum."""
    return [math.fsum(row) for row in (expo.exponents * expo.actions).tolist()]


def expo_value(expo, k):
    """The exponential sum sum_n c_n exp(i k <n, actions>) at wavenumber k."""
    return sum(c * np.exp(1j * s * k) for s, c in zip(total_actions(expo), expo.coefficients))


def coefficient_dict(expo):
    """The kept coefficients keyed by their exponent tuples."""
    return dict(zip(map(tuple, expo.exponents.tolist()), expo.coefficients.tolist()))


CONDITIONS = ("dirichlet", "kirchhoff", "scaling_delta")


def random_graph(rng):
    """Connected graph on 1-4 vertices with at most 6 bonds.

    A random spanning tree is topped up with bonds between random ends, so
    loops and parallel bonds occur.  A Kirchhoff vertex of degree 2 is
    transparent and can close a ring, whose levels are double (a cosine and
    a sine mode); such a vertex gets a delta coupler instead.
    """
    n_vertices = int(rng.integers(1, 5))
    n_bonds = int(rng.integers(max(1, n_vertices - 1), 7))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n_vertices)]
    while len(edges) < n_bonds:
        u, w = rng.integers(0, n_vertices, size=2)
        edges.append((int(u), int(w)))
    vertices = []
    for v in range(n_vertices):
        condition = CONDITIONS[int(rng.integers(0, 3))]
        if condition == "kirchhoff" and sum(e.count(v) for e in edges) == 2:
            condition = "scaling_delta"
        strength = float(rng.uniform(0.5, 3.0)) if condition == "scaling_delta" else 0.0
        vertices.append(VertexSpec(v, condition, strength))
    bonds = [BondSpec(e, float(rng.uniform(0.2, 1.0)), float(rng.uniform(-0.5, 0.5))) for e in edges]
    return QuantumGraph(vertices=tuple(vertices), bonds=tuple(bonds))


_FUZZ_RNG = np.random.default_rng(2024)
FUZZ_GRAPHS = [random_graph(_FUZZ_RNG) for _ in range(60)]


def assert_mirror_identity(expansion, graph):
    """Sigma is unitary, so det(I - U) = det U * conj(det(I - U)) for
    U = D(k) Sigma: c_(2-n) = det Sigma * conj(c_n), and the leading action
    is the total bond action.  The mirror of grid point p is point
    size - 1 - p, a coefficient below the floor counting as 0."""
    expo = expansion.expo
    det_sigma = np.linalg.det(bond_scattering_matrix(graph))
    grid = np.zeros(expo.size, dtype=complex)
    grid[expo.indices] = expo.coefficients
    mirrors = grid[expo.size - 1 - expo.indices]
    mismatch = np.abs(mirrors - det_sigma * expo.coefficients.conj())
    assert mismatch.max() <= 1e-12, expo.exponents[mismatch.argmax()]
    # Reversing the grid maps exponents n to 2 - n.
    rows = dict(zip(expo.indices.tolist(), expo.exponents.tolist()))
    for p, n in rows.items():
        if expo.size - 1 - p in rows:
            assert rows[expo.size - 1 - p] == [2 - b for b in n], n
    assert expansion.series.leading_action == math.fsum(b.action for b in graph.bonds)


def assert_reconstructs(expansion, graph, ks):
    """The series is the rotated, centred, normalized determinant."""
    for k in ks:
        recon = expansion.normalization * np.exp(-1j * expansion.theta * k) * numeric_det(graph, k)
        assert abs(evaluate(expansion.series, k) - recon.real) <= 1e-9
        assert abs(recon.imag) <= 1e-9


def reference_realification(graph):
    """Series and bond rows realified one monomial at a time over a dict of
    exponent tuples, from ``transfer_determinant``'s arrays: the loop that
    ``expand_secular`` ran before it worked on the coefficient grid."""
    expo = transfer_determinant(graph)
    coefficients = coefficient_dict(expo)
    n_bonds = len(expo.actions)
    theta = math.fsum(expo.actions)
    top = (2,) * n_bonds
    c_0 = coefficients[(0,) * n_bonds]
    c_top = coefficients[top]
    rotation = cmath.exp(0.5j * cmath.phase(c_0.conjugate() / c_top))
    lead = rotation * c_top
    boundary = 1e-12 * abs(lead)
    if lead.real < -boundary or (abs(lead.real) <= boundary and lead.imag > 0.0):
        rotation = -rotation
    r_lead = 0.5 * (rotation * c_top + (rotation * c_0).conjugate())
    lead_amp = abs(r_lead)
    scale = 2.0 * lead_amp
    raw_terms = []
    rows = {0.0: (0,) * n_bonds}
    for n, c in coefficients.items():
        kappa = math.fsum(b * s for b, s in zip(n, expo.actions)) - theta
        if kappa < -MERGE_TOL:
            continue
        p = rotation * c
        q = (rotation * coefficients.get(tuple(2 - b for b in n), 0.0)).conjugate()
        assert abs(p - q) <= CONJUGATE_TOL, n
        if n == top:
            continue
        r = 0.5 * (p + q)
        if abs(kappa) <= MERGE_TOL:
            raw_terms.append((0.0, -r.real / scale, 0.0))
        else:
            raw_terms.append((kappa, -abs(r) / lead_amp, math.atan2(r.imag, r.real)))
            rows.setdefault(kappa, tuple(b - 1 for b in n))
    series = canonicalize(theta, math.atan2(r_lead.imag, r_lead.real), raw_terms)
    return series, BondTerms.from_rows(expo.actions, [rows[t.action] for t in series.terms], series.arrays[0])


def principal_minor_coefficients(graph):
    """det(I - D Sigma) = sum_T (-1)^|T| prod_{i in T} z_i det Sigma[T, T],
    summed by brute force over directed-bond subsets T and collected by the
    per-bond exponent n_b = |T & {2b, 2b+1}|."""
    sigma = bond_scattering_matrix(graph)
    n = sigma.shape[0]
    out = {}
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            minor = np.linalg.det(sigma[np.ix_(subset, subset)]) if subset else 1.0
            exponents = [0] * len(graph.bonds)
            for i in subset:
                exponents[i // 2] += 1
            key = tuple(exponents)
            out[key] = out.get(key, 0.0) + (-1) ** size * minor
    return out


def reflecting_bonds(graph):
    """Bonds with an end at a Dirichlet or degree-1 vertex: waves arriving
    there only turn back, so the bond's exponent is 0 or 2."""
    conditions = {v.id: v.condition for v in graph.vertices}
    return [
        b for b in graph.bonds
        if any(conditions[e] == "dirichlet" or graph.degree(e) == 1 for e in b.endpoints)
    ]


# Small enough for the brute-force minor expansion: the conftest graphs
# and the random graphs with a reflecting bond.
REFLECTING_FUZZ = [
    i for i, g in enumerate(FUZZ_GRAPHS) if len(g.bonds) <= 5 and reflecting_bonds(g)
]
MINOR_GRAPHS = {n: f() for n, f in ALL_GRAPHS.items() if len(f().bonds) <= 4}
MINOR_GRAPHS.update({f"fuzz{i}": FUZZ_GRAPHS[i] for i in REFLECTING_FUZZ})


# Eight arm lengths from 0.5 to 1.0, none commensurate.
ARMS8 = [0.5, 0.93, 0.71, 0.57, 1.0, 0.64, 0.86, 0.78]


def delta_star(lengths):
    vertices = [VertexSpec(0, "kirchhoff")]
    vertices += [VertexSpec(i, "scaling_delta", 1.2 + 0.05 * i) for i in range(1, len(lengths) + 1)]
    bonds = tuple(BondSpec((0, i), length) for i, length in enumerate(lengths, 1))
    return QuantumGraph(vertices=tuple(vertices), bonds=bonds)


def wheel():
    """A Kirchhoff hub joined to a ring of four delta vertices: 8 bonds, no leaf."""
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
    vertices = [VertexSpec(0, "kirchhoff")]
    vertices += [VertexSpec(i, "scaling_delta", 1.2 + 0.1 * i) for i in range(1, 5)]
    bonds = tuple(BondSpec(e, length) for e, length in zip(edges, ARMS8))
    return QuantumGraph(vertices=tuple(vertices), bonds=bonds)


# The conftest graphs, the random graphs and the 8-bond stars and wheel.
REALIFY_GRAPHS = {n: f() for n, f in ALL_GRAPHS.items()}
REALIFY_GRAPHS.update({f"fuzz{i}": g for i, g in enumerate(FUZZ_GRAPHS)})
REALIFY_GRAPHS.update(star8_dirichlet=dirichlet_star(ARMS8), star8_delta=delta_star(ARMS8), wheel=wheel())


def float_bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(REALIFY_GRAPHS))
def test_realification_matches_reference(name):
    # The array realification keeps every bit of the per-monomial loop.
    graph = REALIFY_GRAPHS[name]
    want, bonds = reference_realification(graph)
    got = secular_series(graph)
    assert [float_bits(t) for t in got.terms] == [float_bits(t) for t in want.terms]
    leading = (got.leading_action, got.leading_phase), (want.leading_action, want.leading_phase)
    assert float_bits(leading[0]) == float_bits(leading[1])
    assert np.array_equal(got.bonds.rows, bonds.rows)
    assert float_bits(got.bonds.drift) == float_bits(bonds.drift)


class TestVertexScattering:
    def test_dirichlet_degree_one(self):
        sigma = vertex_scattering(VertexSpec(0, "dirichlet"), 1)
        assert sigma.shape == (1, 1)
        assert sigma[0, 0] == -1

    def test_kirchhoff_degree_two_is_transparent(self):
        sigma = vertex_scattering(VertexSpec(0, "kirchhoff"), 2)
        assert np.allclose(sigma, [[0, 1], [1, 0]], atol=0)

    def test_zero_strength_delta_equals_kirchhoff(self):
        delta = vertex_scattering(VertexSpec(0, "scaling_delta", 0.0), 3)
        kirch = vertex_scattering(VertexSpec(0, "kirchhoff"), 3)
        assert np.array_equal(delta, kirch)

    def test_invalid_degree(self):
        with pytest.raises(DegreeMismatch):
            vertex_scattering(VertexSpec(0, "kirchhoff"), 0)

    @pytest.mark.parametrize("condition,lam", [
        ("dirichlet", 0.0),
        ("kirchhoff", 0.0),
        ("scaling_delta", 0.0),
        ("scaling_delta", 1.7),
        ("scaling_delta", -3.2),
        ("scaling_delta", 25.0),
    ])
    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    def test_unitarity(self, condition, lam, degree):
        sigma = vertex_scattering(VertexSpec(0, condition, lam), degree)
        assert np.max(np.abs(sigma @ sigma.conj().T - np.eye(degree))) <= 1e-12


class TestTransferMatrix:
    KS = np.array([0.0, 1e-9, 0.37, 12.5, 987.25, 1e6 + 0.3, 1e12 + 0.7])

    def test_array_of_k_equals_scalar_calls(self, any_graph):
        # A scalar call is the one-k formula D(k) Sigma, bit for bit.
        n = 2 * len(any_graph.bonds)
        sigma = bond_scattering_matrix(any_graph)
        actions = np.repeat([b.action for b in any_graph.bonds], 2)
        stack = transfer_matrix(any_graph, self.KS)
        assert stack.shape == (self.KS.size, n, n)
        for k, matrix in zip(self.KS, stack):
            assert np.array_equal(matrix, transfer_matrix(any_graph, float(k)))
            assert np.array_equal(matrix, np.exp(1j * actions * float(k))[:, None] * sigma)
        assert np.array_equal(transfer_matrix(any_graph, self.KS.reshape(7, 1))[:, 0], stack)


class TestGraphValidation:
    def test_duplicate_vertex_ids(self):
        with pytest.raises(ValidationError, match="unique"):
            QuantumGraph(
                vertices=(VertexSpec(0, "dirichlet"), VertexSpec(0, "dirichlet")),
                bonds=(BondSpec((0, 0), 1.0),),
            )

    def test_unknown_endpoint(self):
        with pytest.raises(ValidationError, match="not a vertex id"):
            QuantumGraph(
                vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "dirichlet")),
                bonds=(BondSpec((0, 7), 1.0),),
            )

    def test_nonpositive_length(self):
        with pytest.raises(ValidationError, match="length"):
            QuantumGraph(
                vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "dirichlet")),
                bonds=(BondSpec((0, 1), 0.0),),
            )

    def test_tunneling_fraction_rejected(self):
        with pytest.raises(ValidationError, match="potential_fraction must be < 1"):
            QuantumGraph(
                vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "dirichlet")),
                bonds=(BondSpec((0, 1), 1.0, 1.2),),
            )

    def test_disconnected_graph(self):
        with pytest.raises(ValidationError, match="not connected"):
            QuantumGraph(
                vertices=tuple(VertexSpec(i, "dirichlet") for i in range(4)),
                bonds=(BondSpec((0, 1), 1.0), BondSpec((2, 3), 1.0)),
            )

    def test_isolated_vertex(self):
        with pytest.raises(ValidationError, match="degree 0"):
            QuantumGraph(
                vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "dirichlet"),
                          VertexSpec(2, "kirchhoff")),
                bonds=(BondSpec((0, 1), 1.0),),
            )

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            dirichlet_star([1.0 + 0.01 * i for i in range(1, 12)])

    def test_size_cap_decided_by_bond_count(self):
        # The violation message quotes the condition, which mentions
        # "directed bonds"; a 1-bond graph is still under the cap.
        with pytest.raises(ValidationError, match="unknown condition") as info:
            QuantumGraph(
                vertices=(VertexSpec(0, "directed bonds"), VertexSpec(1, "dirichlet")),
                bonds=(BondSpec((0, 1), 1.0),),
            )
        assert not isinstance(info.value, SizeCapExceeded)

    def test_delta_strength_only_on_delta(self):
        with pytest.raises(ValidationError, match="delta strength"):
            QuantumGraph(
                vertices=(VertexSpec(0, "dirichlet", 1.0), VertexSpec(1, "dirichlet")),
                bonds=(BondSpec((0, 1), 1.0),),
            )

    @pytest.mark.parametrize(
        "vertex, bond, anchor",
        [
            (VertexSpec(0, "dirichlet"), BondSpec((0, 1), "1.0"), "graph.bonds[0].length: "),
            (VertexSpec(0, "dirichlet"), BondSpec((0, 1), None), "graph.bonds[0].length: "),
            (VertexSpec(0, "dirichlet"), BondSpec((0, 1), 1j), "graph.bonds[0].length: "),
            (VertexSpec(0, "scaling_delta", "x"), BondSpec((0, 1), 1.0), "graph.vertices[0].lambda: "),
            (VertexSpec([0], "dirichlet"), BondSpec((0, 1), 1.0), "graph.vertices[0].id: "),
            (VertexSpec(0, "dirichlet"), BondSpec((0,), 1.0), "graph.bonds[0]: "),
        ],
        ids=["length-str", "length-none", "length-complex", "lambda-str", "id-list", "one-endpoint"],
    )
    def test_malformed_field_types(self, vertex, bond, anchor):
        with pytest.raises(ValidationError) as info:
            QuantumGraph(vertices=(vertex, VertexSpec(1, "dirichlet")), bonds=(bond,))
        assert any(v.startswith(anchor) for v in info.value.violations), info.value.violations

    def test_bond_action_folds_potential(self):
        bond = BondSpec((0, 1), 2.0, 0.75)
        assert bond.action == pytest.approx(1.0, abs=1e-15)


class TestSecularSeries:
    def test_dirichlet_bond_is_sine(self):
        series = secular_series(ALL_GRAPHS["bond_dd"]())
        assert series.leading_action == pytest.approx(1.0, abs=0)
        assert series.leading_phase == pytest.approx(3 * math.pi / 2, abs=1e-12)
        assert series.terms == ()
        for k in (0.3, 1.0, 2.7):
            assert evaluate(series, k) == pytest.approx(math.sin(k), abs=1e-15)

    def test_mixed_bond_is_cosine(self):
        series = secular_series(ALL_GRAPHS["bond_dk"]())
        assert series.leading_action == pytest.approx(1.0, abs=0)
        assert min(series.leading_phase, 2 * math.pi - series.leading_phase) <= 1e-12
        assert series.terms == ()

    def test_three_star_structure(self):
        series = secular_series(make_star3())
        assert series.leading_action == pytest.approx(2.14, abs=1e-12)
        actions = sorted(t.action for t in series.terms)
        # Signed length combinations inside (0, S0).
        assert actions == pytest.approx([0.14, 0.72, 1.28], abs=1e-9)
        for t in series.terms:
            assert t.amplitude == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_equal_arm_star_collapses_to_double_bond(self):
        # A transparent degree-two Kirchhoff vertex joins the two unit arms
        # into one Dirichlet bond of length 2, whose series is sin(2k).
        series = secular_series(ALL_GRAPHS["star2_equal"]())
        assert series.leading_action == pytest.approx(2.0, abs=1e-12)
        assert series.leading_phase == pytest.approx(3 * math.pi / 2, abs=1e-12)
        assert series.terms == ()

    def test_reconstruction_residual(self, any_graph):
        expansion = expand_secular(any_graph)
        ks = np.random.default_rng(11).uniform(0.05, 50.0, size=200)
        assert_reconstructs(expansion, any_graph, ks)

    def test_mirror_identity(self, any_graph):
        assert_mirror_identity(expand_secular(any_graph), any_graph)

    def test_zero_sets_coincide(self, any_graph):
        # Roots of the realified series against roots of the numeric
        # determinant; the latter are located without the symbolic
        # expansion, through the recorded constants only.
        expansion = expand_secular(any_graph)
        series = expansion.series
        window = (0.0, 25.0)
        series_roots = scan_roots(series, window)

        def real_det(k):
            return (expansion.normalization * np.exp(-1j * expansion.theta * k) * numeric_det(any_graph, k)).real

        s0 = series.leading_action
        ks = np.linspace(0.05, window[1], int(50 * s0 * window[1] / math.pi))
        vals = np.array([real_det(k) for k in ks])
        signs = np.sign(vals)
        det_roots = []
        for i in np.nonzero(signs[:-1] != signs[1:])[0]:
            a, b = ks[i], ks[i + 1]
            fa = vals[i]
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = real_det(mid)
                if np.sign(fm) == np.sign(fa):
                    a, fa = mid, fm
                else:
                    b = mid
            det_roots.append(0.5 * (a + b))
        det_roots = np.array(det_roots)

        assert len(det_roots) == len(series_roots)
        if len(det_roots):
            assert np.max(np.abs(det_roots - series_roots)) <= 1e-8

    def test_exponent_vectors_are_binary(self, any_graph):
        # Binary per directed bond: a bond's exponent counts its two
        # directions, so it lies in {0, 1, 2}.
        expo = transfer_determinant(any_graph)
        n_bonds = len(any_graph.bonds)
        assert len(expo.actions) == n_bonds
        assert len(expo.coefficients) <= 3 ** n_bonds
        assert expo.exponents.shape == (len(expo.coefficients), n_bonds)
        assert set(expo.exponents.ravel().tolist()) <= {0, 1, 2}
        assert len(set(map(tuple, expo.exponents.tolist()))) == len(expo.coefficients)
        assert np.all(np.diff(expo.indices) > 0) and 0 <= expo.indices[0] <= expo.indices[-1] < expo.size
        assert np.all(np.abs(expo.coefficients) >= expo.floor)

    @pytest.mark.parametrize("name", sorted(MINOR_GRAPHS))
    def test_coefficients_match_principal_minors(self, name):
        graph = MINOR_GRAPHS[name]
        coefficients = coefficient_dict(transfer_determinant(graph))
        oracle = principal_minor_coefficients(graph)
        for exponents in oracle.keys() | coefficients.keys():
            got = coefficients.get(exponents, 0.0)
            assert abs(got - oracle.get(exponents, 0.0)) <= 1e-12, exponents

    @pytest.mark.parametrize("arms", [4, 6])
    def test_kirchhoff_star_structural_zeros(self, arms):
        # A size-j principal minor of the centre's (2/B)J - I is
        # (-1)^j (1 - 2j/B); the B/2-arm terms vanish exactly and must not
        # survive as interpolation noise.
        graph = dirichlet_star([1.0 - 0.07 * i for i in range(arms)])
        expo = transfer_determinant(graph)
        assert len(expo.coefficients) == 2**arms - math.comb(arms, arms // 2)

    def test_nine_bond_star_reconstruction(self):
        graph = dirichlet_star([1.0 - 0.055 * i for i in range(9)])
        ks = np.random.default_rng(5).uniform(0.05, 40.0, size=20)
        assert_reconstructs(expand_secular(graph), graph, ks)

    def test_expo_polynomial_matches_numeric_det(self, any_graph):
        expo = transfer_determinant(any_graph)
        for k in (0.17, 1.3, 6.9):
            assert expo_value(expo, k) == pytest.approx(numeric_det(any_graph, k), abs=1e-10)

    def test_commensurate_actions_merge(self):
        # Arms of equal length make several exponent vectors share one total
        # action; their coefficients must be added, not duplicated.
        for lengths in (
            [1.0, 1.0, 0.5],
            [1.0, 1.5, 1.0, 1.5, 1.5, 1.0, 1.0, 1.5],
            [0.5, 1.0, 1.5, 1.0, 0.5, 1.5, 1.5, 0.5, 1.0, 1.0],
        ):
            graph = dirichlet_star(lengths)
            expansion = expand_secular(graph)
            actions = [t.action for t in expansion.series.terms]
            assert len(actions) == len(set(actions))
            assert_reconstructs(expansion, graph, np.random.default_rng(3).uniform(0.1, 30.0, size=50))


    def test_non_unitary_scattering_is_refused(self, monkeypatch):
        # Without unitarity the coefficients have no conjugate mirrors.
        # c*J - I is unitary only for c = 2/(d + i*lam); 0.75*c keeps the
        # centre invertible (at 0.5*c its eigenvalue d*c - 1 would be 0 and
        # the top coefficient would vanish instead).
        import qgspectra.graphs as graphs_module

        coupling = graphs_module.vertex_coupling
        monkeypatch.setattr(graphs_module, "vertex_coupling", lambda v, d: 0.75 * coupling(v, d))
        with pytest.raises(RealificationFailure, match="not conjugate"):
            expand_secular(make_star3())

    def test_vanishing_total_action_is_refused(self):
        # Every total action lies within MERGE_TOL of the centre, so no
        # cosine is left to lead the series.
        graph = QuantumGraph(
            vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "dirichlet")),
            bonds=(BondSpec((0, 1), 1e-13),),
        )
        with pytest.raises(RealificationFailure, match="no cosine above the constant term"):
            expand_secular(graph)


def mp_det(rows):
    """Determinant by elimination with partial pivoting, in the arithmetic
    of the entries (mpmath's LU stops on a column of zeros)."""
    rows = [list(row) for row in rows]
    det = 1
    for j in range(len(rows)):
        p = max(range(j, len(rows)), key=lambda i: abs(rows[i][j]))
        if rows[p][j] == 0:
            return 0
        if p != j:
            rows[j], rows[p] = rows[p], rows[j]
            det = -det
        det *= rows[j][j]
        for row in rows[j + 1:]:
            f = row[j] / rows[j][j]
            row[j + 1:] = [x - f * y for x, y in zip(row[j + 1:], rows[j][j + 1:])]
    return det


def mp_principal_minor_coefficients(graph, mp):
    """principal_minor_coefficients in mpmath arithmetic; Sigma is rebuilt
    from the vertex conditions at the working precision.  A directed-bond
    subset holding one direction of a reflecting bond but not the other has
    a zero row or column in Sigma[T, T], so such a bond contributes only its
    empty and its whole subset: 2^R * 4^(B - R) subsets are summed."""
    tails = {v.id: [] for v in graph.vertices}
    for bi, b in enumerate(graph.bonds):
        tails[b.endpoints[0]].append(2 * bi)
        tails[b.endpoints[1]].append(2 * bi + 1)
    sigma = {}
    for v in graph.vertices:
        outgoing = tails[v.id]
        c = 2 / (len(outgoing) + 1j * mp.mpf(v.delta_strength))
        for pi, i in enumerate(outgoing):
            for pj, rev_j in enumerate(outgoing):
                diagonal = 1 if pi == pj else 0
                sigma[i, rev_j ^ 1] = -diagonal if v.condition == "dirichlet" else c - diagonal
    reflecting = reflecting_bonds(graph)
    choices = [
        ((), (2 * bi, 2 * bi + 1)) if b in reflecting
        else ((), (2 * bi,), (2 * bi + 1,), (2 * bi, 2 * bi + 1))
        for bi, b in enumerate(graph.bonds)
    ]
    out = {}
    for parts in itertools.product(*choices):
        subset = [d for part in parts for d in part]
        minor = mp_det([[sigma.get((i, j), 0) for j in subset] for i in subset])
        key = tuple(len(part) for part in parts)
        out[key] = out.get(key, 0) + (-1) ** len(subset) * minor
    return out


class TestReflectingAxes:
    """A reflecting bond's axis takes two grid nodes instead of three."""

    @pytest.mark.parametrize("make,points,order", [
        (lambda: dirichlet_star(ARMS8), 2**8, 1),
        (lambda: delta_star(ARMS8), 2**8, 9),
        (wheel, 3**8, 5),
        (make_path4, 2**2 * 3, 3),
        (make_bond_dd, 2, 0),
        (make_loop, 3, 1),
    ], ids=["star8_dirichlet", "star8_delta", "wheel", "path4", "bond_dd", "loop"])
    def test_grid_size(self, monkeypatch, make, points, order):
        # One determinant per grid point, of order V', the number of
        # vertices that are not Dirichlet.
        graph = make()
        reflecting = len(reflecting_bonds(graph))
        assert points == 2**reflecting * 3 ** (len(graph.bonds) - reflecting)
        assert order == sum(v.condition != "dirichlet" for v in graph.vertices)
        import qgspectra.graphs as graphs_module

        det = np.linalg.det
        counted = []

        def counting_det(mats):
            counted.append(mats.shape)
            return det(mats)

        monkeypatch.setattr(graphs_module.np.linalg, "det", counting_det)
        transfer_determinant(graph)
        assert sum(shape[0] for shape in counted) == points
        assert {shape[1:] for shape in counted} == {(order, order)}

    def test_fuzz_corpus_has_dirichlet_hub(self):
        # A Dirichlet vertex of degree >= 2 makes several bonds reflecting
        # at one vertex; the random graphs that
        # test_coefficients_match_principal_minors takes must include one.
        assert any(
            v.condition == "dirichlet" and FUZZ_GRAPHS[i].degree(v.id) >= 2
            for i in REFLECTING_FUZZ
            for v in FUZZ_GRAPHS[i].vertices
        )

    @pytest.mark.parametrize("make", [dirichlet_star, delta_star], ids=["dirichlet", "delta"])
    def test_star8_coefficients_at_40_digits(self, make):
        assert_coefficients_at_40_digits(make(ARMS8))

    @pytest.mark.parametrize("make", [make_triangle_delta, make_bond_dd, make_loop],
                             ids=["triangle_delta", "bond_dd", "loop"])
    def test_small_graph_coefficients_at_40_digits(self, make):
        # A leafless triangle (all 4^3 subsets), a bond with no coupled
        # vertex (V' = 0) and a loop, whose two ends share one vertex.
        assert_coefficients_at_40_digits(make())


def assert_coefficients_at_40_digits(graph):
    mpmath = pytest.importorskip("mpmath")
    coefficients = coefficient_dict(transfer_determinant(graph))
    with mpmath.workdps(40):
        oracle = mp_principal_minor_coefficients(graph, mpmath.mp)
        assert coefficients.keys() <= oracle.keys()
        for exponents, want in oracle.items():
            got = mpmath.mpc(coefficients.get(exponents, 0.0))
            assert abs(got - want) <= 1e-15, exponents


class TestRandomGraphs:
    @pytest.mark.parametrize("index", range(len(FUZZ_GRAPHS)))
    def test_identity_reconstruction_and_oracle(self, index):
        graph = FUZZ_GRAPHS[index]
        expansion = expand_secular(graph)
        assert_mirror_identity(expansion, graph)
        assert_reconstructs(expansion, graph, np.linspace(0.05, 30.0, 20))
        # 1000 points per half-period: the default scan grid steps over
        # close root pairs of some of these graphs.
        report = verify_spectrum(expansion.series, (0.0, 30.0), oversampling=1000)
        assert report.clean, (graph, report)
        # The eigenphase count of the graph needs no grid, at high k too.
        for k_lo in (1e6, 1e10):
            report = verify_spectrum(graph, (k_lo, k_lo + 10.0))
            assert report.clean, (graph, k_lo, report)
            assert report.max_deviation <= 1e-5
