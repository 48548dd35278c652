"""40-digit reference tier: every reported enclosure contains a sign change.

The series is re-evaluated in 40-digit arithmetic at ``k - enclosure`` and
``k + enclosure``; the two signs must differ, so the true root of the
(exactly represented) series lies inside the enclosure.  The separator
tier checks the roots of every level above the reported one the same way,
at the half-width ``delta`` that the descent's separator argument needs.
The separator-value tier checks the values a level takes from the model
of the level above instead of evaluating them: each must have the 40-digit
sign of that level at its separator and lie nearer zero than its value.
The bond tier repeats the enclosure and separator checks on graphs whose
series have more terms than twice their bonds, which the solver evaluates
from bond phasors.
"""

import math

import numpy as np
import pytest

from qgspectra import build_chain, descend, descend_with_trace, secular_series, solve_graph
from qgspectra.fuzz import random_series, standard_window
from qgspectra.solver import ENDPOINT_TOL

from conftest import (
    SOLVABLE_GRAPHS,
    STAR_LENGTHS,
    dirichlet_star,
    make_wheel5,
    model_separator_values,
)

mpmath = pytest.importorskip("mpmath")

# Criterion-5 corpus of the acceptance suite: seed and the prefix checked here.
FUZZ_SEED = 20260809
FUZZ_PREFIX = 100


# The separator tier solves the conftest graphs on (0, GRAPH_KMAX].
GRAPH_KMAX = 40.0

# The arms of graph_build's seed-1 star8_dirichlet (perfbench/workloads.py
# ``_star``).  Its roots near k = 29.35 and 29.43 miss at 40 digits when the
# bond kernel drops its drift rows.
BUILD_STAR8_LENGTHS = (
    0.6430171152863896,
    0.431294100229226,
    0.6642095848515929,
    0.5145030123492382,
    0.7328260494770522,
    0.8262461509419077,
    0.8537465579627749,
    0.5341574289018182,
)

# The bond tier: graph and reported window; separators on (0, 20].
BOND_GRAPHS = {
    "star6": (lambda: dirichlet_star(STAR_LENGTHS[:6]), 60.0),
    "star7": (lambda: dirichlet_star(STAR_LENGTHS[:7]), 60.0),
    "star8": (lambda: dirichlet_star(STAR_LENGTHS), 30.0),
    "star8_build1": (lambda: dirichlet_star(BUILD_STAR8_LENGTHS), 30.0),
    "wheel5": (make_wheel5, 30.0),
}


def _exact(series):
    """The series as a function of an mpmath wavenumber, at working precision."""
    mp = mpmath.mp
    s0, phi0 = mp.mpf(series.leading_action), mp.mpf(series.leading_phase)
    terms = [(mp.mpf(t.action), mp.mpf(t.amplitude), mp.mpf(t.phase)) for t in series.terms]

    def value(k):
        return mp.cos(s0 * k + phi0) - mp.fsum(a * mp.cos(s * k + p) for s, a, p in terms)

    return value


def _misses(series, roots) -> list[tuple[float, float]]:
    """(k, half-width) pairs whose two ends have the same 40-digit series sign."""
    mp = mpmath.mp
    exact = _exact(series)

    def sign(k) -> int:
        return int(mp.sign(exact(k)))

    misses = []
    for x, h in roots:
        k, r = mp.mpf(x), mp.mpf(h)
        if sign(k - r) * sign(k + r) >= 0:
            misses.append((x, h))
    return misses


def _enclosures(spectrum) -> list[tuple[float, float]]:
    return [(e.wavenumber, e.enclosure) for e in spectrum]


def _separator_misses(chain, window) -> tuple[int, list[tuple[int, float]]]:
    """Roots of levels 1..M with no 40-digit sign change across +-delta.

    ``delta = 0.25 * sqrt(ENDPOINT_TOL / (1 + sum a_j r_j)) / s0`` for the
    level's amplitudes a_j and action ratios r_j: the separator half-width
    within which the level below cannot change sign past its guard.
    Returns the number of roots checked and the (level, root) misses.
    """
    _, trace = descend_with_trace(chain, window)
    checked, misses = 0, []
    for m in range(1, chain.order + 1):
        series = chain.levels[m]
        s0 = series.leading_action
        slope = math.fsum(t.amplitude * t.action / s0 for t in series.terms)
        delta = 0.25 * math.sqrt(ENDPOINT_TOL / (1.0 + slope)) / s0
        roots = trace.level_roots[m]
        checked += len(roots)
        misses += [(m, x) for x, _ in _misses(series, [(float(x), delta) for x in roots])]
    return checked, misses


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


@pytest.mark.parametrize("name", sorted(SOLVABLE_GRAPHS))
def test_graph_enclosures_hold_at_40_digits(name):
    graph = SOLVABLE_GRAPHS[name]()
    spectrum = solve_graph(graph, (0.0, 200.0))
    assert len(spectrum) > 50
    assert _misses(secular_series(graph), _enclosures(spectrum)) == []


def test_fuzz_enclosures_hold_at_40_digits():
    rng = np.random.default_rng(FUZZ_SEED)
    for i in range(FUZZ_PREFIX):
        series = random_series(rng)
        spectrum = descend(build_chain(series), standard_window(series, 50))
        assert _misses(series, _enclosures(spectrum)) == [], f"series {i}"


@pytest.mark.parametrize("name", sorted(SOLVABLE_GRAPHS))
def test_graph_separators_hold_at_40_digits(name):
    chain = build_chain(secular_series(SOLVABLE_GRAPHS[name]()))
    checked, misses = _separator_misses(chain, (0.0, GRAPH_KMAX))
    assert checked > 0 or chain.order == 0
    assert misses == []


def test_fuzz_separators_hold_at_40_digits():
    rng = np.random.default_rng(FUZZ_SEED)
    total = 0
    for i in range(FUZZ_PREFIX):
        series = random_series(rng)
        checked, misses = _separator_misses(build_chain(series), standard_window(series, 50))
        assert misses == [], f"series {i}"
        total += checked
    assert total > 1000


@pytest.mark.parametrize("name", sorted(SOLVABLE_GRAPHS))
def test_graph_separator_values_hold_at_40_digits(name, monkeypatch):
    chain = build_chain(secular_series(SOLVABLE_GRAPHS[name]()))
    _, passes = model_separator_values(monkeypatch, chain, (0.0, GRAPH_KMAX))
    checked, wrong = 0, []
    for series, xs, values in passes:
        exact = _exact(series)
        for x, value in zip(xs.tolist(), values.tolist()):
            true = exact(mpmath.mpf(x))
            if mpmath.sign(true) != math.copysign(1.0, value) or abs(true) < abs(value):
                wrong.append((x, value))
        checked += len(xs)
    assert checked > 0 or chain.order == 0
    assert wrong == []


@pytest.mark.parametrize("name", sorted(BOND_GRAPHS))
def test_bond_graph_roots_hold_at_40_digits(name):
    make, kmax = BOND_GRAPHS[name]
    series = secular_series(make())
    assert 2 * series.bonds.actions.size < len(series.terms)
    spectrum = solve_graph(make(), (0.0, kmax))
    assert len(spectrum) > 40
    assert _misses(series, _enclosures(spectrum)) == []
    checked, misses = _separator_misses(build_chain(series), (0.0, 20.0))
    assert checked > 100 and misses == []
