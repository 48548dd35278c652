"""40-digit reference tier: every reported enclosure contains a sign change.

The series is re-evaluated in 40-digit arithmetic at ``k - enclosure`` and
``k + enclosure``; the two signs must differ, so the true root of the
(exactly represented) series lies inside the enclosure.
"""

import numpy as np
import pytest

from qgspectra import build_chain, descend, secular_series, solve_graph
from qgspectra.fuzz import random_series, standard_window

from conftest import SOLVABLE_GRAPHS

mpmath = pytest.importorskip("mpmath")

# Criterion-5 corpus of the acceptance suite: seed and the prefix checked here.
FUZZ_SEED = 20260809
FUZZ_PREFIX = 100


def _misses(series, spectrum) -> list[tuple[float, float]]:
    """Roots whose enclosure ends have the same 40-digit series sign."""
    mp = mpmath.mp
    s0, phi0 = mp.mpf(series.leading_action), mp.mpf(series.leading_phase)
    terms = [(mp.mpf(t.action), mp.mpf(t.amplitude), mp.mpf(t.phase)) for t in series.terms]

    def sign(k) -> int:
        value = mp.cos(s0 * k + phi0) - mp.fsum(a * mp.cos(s * k + p) for s, a, p in terms)
        return int(mp.sign(value))

    misses = []
    for e in spectrum:
        k, r = mp.mpf(e.wavenumber), mp.mpf(e.enclosure)
        if sign(k - r) * sign(k + r) >= 0:
            misses.append((e.wavenumber, e.enclosure))
    return misses


@pytest.fixture(autouse=True)
def forty_digits():
    with mpmath.workdps(40):
        yield


@pytest.mark.parametrize("name", sorted(SOLVABLE_GRAPHS))
def test_graph_enclosures_hold_at_40_digits(name):
    graph = SOLVABLE_GRAPHS[name]()
    spectrum = solve_graph(graph, (0.0, 200.0))
    assert len(spectrum) > 50
    assert _misses(secular_series(graph), spectrum) == []


def test_fuzz_enclosures_hold_at_40_digits():
    rng = np.random.default_rng(FUZZ_SEED)
    for i in range(FUZZ_PREFIX):
        series = random_series(rng)
        spectrum = descend(build_chain(series), standard_window(series, 50))
        assert _misses(series, spectrum) == [], f"series {i}"
