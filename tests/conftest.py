"""Shared fixtures: the small graph corpus used across test modules."""

import numpy as np
import pytest

from qgspectra import BondSpec, QuantumGraph, VertexSpec, descend_with_trace, solver


def make_bond_dd() -> QuantumGraph:
    return QuantumGraph(
        vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "dirichlet")),
        bonds=(BondSpec((0, 1), 1.0),),
    )


def make_bond_dk() -> QuantumGraph:
    return QuantumGraph(
        vertices=(VertexSpec(0, "dirichlet"), VertexSpec(1, "kirchhoff")),
        bonds=(BondSpec((0, 1), 1.0),),
    )


def make_star3() -> QuantumGraph:
    return QuantumGraph(
        vertices=(
            VertexSpec(0, "kirchhoff"),
            VertexSpec(1, "dirichlet"),
            VertexSpec(2, "dirichlet"),
            VertexSpec(3, "dirichlet"),
        ),
        bonds=(BondSpec((0, 1), 1.0), BondSpec((0, 2), 0.71), BondSpec((0, 3), 0.43)),
    )


def make_star3_delta() -> QuantumGraph:
    return QuantumGraph(
        vertices=(
            VertexSpec(0, "scaling_delta", 1.3),
            VertexSpec(1, "dirichlet"),
            VertexSpec(2, "scaling_delta", -0.8),
            VertexSpec(3, "dirichlet"),
        ),
        bonds=(
            BondSpec((0, 1), 0.9, 0.3),
            BondSpec((0, 2), 0.55),
            BondSpec((0, 3), 0.37, -0.5),
        ),
    )


def make_path4() -> QuantumGraph:
    return QuantumGraph(
        vertices=(
            VertexSpec(0, "dirichlet"),
            VertexSpec(1, "kirchhoff"),
            VertexSpec(2, "scaling_delta", 2.1),
            VertexSpec(3, "scaling_delta", 0.7),
        ),
        bonds=(
            BondSpec((0, 1), 1.1),
            BondSpec((1, 2), 0.64, 0.5),
            BondSpec((2, 3), 0.39, -0.25),
        ),
    )


def make_triangle_delta() -> QuantumGraph:
    return QuantumGraph(
        vertices=(
            VertexSpec(0, "scaling_delta", 0.5),
            VertexSpec(1, "scaling_delta", -1.1),
            VertexSpec(2, "scaling_delta", 2.0),
        ),
        bonds=(BondSpec((0, 1), 0.7), BondSpec((1, 2), 0.51), BondSpec((2, 0), 0.33)),
    )


def make_star4() -> QuantumGraph:
    return QuantumGraph(
        vertices=(
            VertexSpec(0, "kirchhoff"),
            VertexSpec(1, "dirichlet"),
            VertexSpec(2, "dirichlet"),
            VertexSpec(3, "dirichlet"),
            VertexSpec(4, "dirichlet"),
        ),
        bonds=(
            BondSpec((0, 1), 1.0),
            BondSpec((0, 2), 0.77),
            BondSpec((0, 3), 0.56),
            BondSpec((0, 4), 0.405),
        ),
    )


def make_star2_equal() -> QuantumGraph:
    return QuantumGraph(
        vertices=(VertexSpec(0, "kirchhoff"), VertexSpec(1, "dirichlet"), VertexSpec(2, "dirichlet")),
        bonds=(BondSpec((0, 1), 1.0), BondSpec((0, 2), 1.0)),
    )


def make_loop() -> QuantumGraph:
    return QuantumGraph(
        vertices=(VertexSpec(0, "kirchhoff"),),
        bonds=(BondSpec((0, 0), 1.0),),
    )


# Arm lengths of the Dirichlet stars; a prefix of n gives the n-bond star.
STAR_LENGTHS = (1.0, 0.913, 0.847, 0.771, 0.706, 0.633, 0.571, 0.502)


def dirichlet_star(lengths) -> QuantumGraph:
    """Kirchhoff centre with one Dirichlet tip per arm length."""
    return QuantumGraph(
        vertices=(VertexSpec(0, "kirchhoff"),)
        + tuple(VertexSpec(i + 1, "dirichlet") for i in range(len(lengths))),
        bonds=tuple(BondSpec((0, i + 1), L) for i, L in enumerate(lengths)),
    )


def make_wheel5() -> QuantumGraph:
    """A hub joined to a 4-cycle of scaling-delta vertices: 8 bonds, 162
    series terms, a constant term among them, which every derivative level
    drops, and one term whose amplitude at the top level is below
    ``AMPLITUDE_FLOOR``, which no level drops."""
    edges = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
    lengths = (0.83, 0.52, 0.97, 0.61, 0.74, 0.58, 0.89, 0.66)
    deltas = (1.3, 1.25, 1.45, 1.55)
    return QuantumGraph(
        vertices=(VertexSpec(0, "kirchhoff"),)
        + tuple(VertexSpec(i, "scaling_delta", d) for i, d in enumerate(deltas, 1)),
        bonds=tuple(BondSpec(e, L) for e, L in zip(edges, lengths)),
    )


# Every constructible graph, including ones with degenerate spectra.
ALL_GRAPHS = {
    "bond_dd": make_bond_dd,
    "bond_dk": make_bond_dk,
    "star3": make_star3,
    "star3_delta": make_star3_delta,
    "path4": make_path4,
    "triangle_delta": make_triangle_delta,
    "star4": make_star4,
    "star2_equal": make_star2_equal,
    "loop": make_loop,
}

# Graphs whose spectra are simple, safe for the descent solver.
SOLVABLE_GRAPHS = {
    name: ALL_GRAPHS[name]
    for name in (
        "bond_dd",
        "bond_dk",
        "star3",
        "star3_delta",
        "path4",
        "triangle_delta",
        "star4",
        "star2_equal",
    )
}


@pytest.fixture(params=sorted(ALL_GRAPHS))
def any_graph(request):
    return ALL_GRAPHS[request.param]()


@pytest.fixture(params=sorted(SOLVABLE_GRAPHS))
def solvable_graph(request):
    return SOLVABLE_GRAPHS[request.param]()


def model_separator_values(monkeypatch, chain, window):
    """Descend, recording the separator values each level pass takes from
    the model of the level above rather than evaluating them.

    Returns the descent's result and, per level pass, the level's series
    (``chain.levels[level]``), the separators whose value came from the
    model, and those values.
    """
    passes = []
    level_pass = solver._level_pass

    def recording(series, bounds, values, **kwargs):
        known = np.abs(values) > solver.ENDPOINT_TOL
        passes.append((chain.levels[kwargs.get("level", 0)], bounds[known], values[known]))
        return level_pass(series, bounds, values, **kwargs)

    monkeypatch.setattr(solver, "_level_pass", recording)
    try:
        return descend_with_trace(chain, window), passes
    finally:
        monkeypatch.undo()
