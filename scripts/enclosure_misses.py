#!/usr/bin/env python3
"""Count the graph roots whose enclosure holds no 40-digit sign change.

    python scripts/enclosure_misses.py [--tree DIR] [--seed S ...]

The inputs are the graph_build and wide_window cases of ``perfbench/run.py
--seed S``, made by the generators in ``perfbench/workloads.py``, and the
code is the checkout ``DIR``'s ``src`` (default: the checkout holding this
script).  Each case is solved with ``solve_graph``.  A root misses when the
float secular series, evaluated in 40-digit mpmath, has the same sign at
``k - enclosure`` and at ``k + enclosure``: the rule of ``_misses`` in
``tests/test_enclosure_mp.py``.  It prints one line per miss (workload,
seed, case, k, enclosure), one line per workload and seed (roots, misses)
and, last, each workload's totals over the seeds.  Needs mpmath.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
GRAPH_WORKLOADS = ("graph_build", "wide_window")


def series_sign(series):
    """The sign of the float series, at mpmath's working precision, as a
    function of an mpf k."""
    mp = mpmath.mp
    s0, phi0 = mp.mpf(series.leading_action), mp.mpf(series.leading_phase)
    terms = [(mp.mpf(t.action), mp.mpf(t.amplitude), mp.mpf(t.phase)) for t in series.terms]

    def sign(k) -> int:
        value = mp.cos(s0 * k + phi0) - mp.fsum(a * mp.cos(s * k + p) for s, a, p in terms)
        return int(mp.sign(value))

    return sign


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose code is checked")
    parser.add_argument("--seed", type=int, action="append", help="default: 1 to 5 and 301")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    from qgspectra import secular_series, solve_graph
    from workloads import WORKLOADS

    mp = mpmath.mp
    totals = []
    with mpmath.workdps(40):
        for name in GRAPH_WORKLOADS:
            all_roots = all_misses = 0
            for seed in args.seed or [1, 2, 3, 4, 5, 301]:
                with tempfile.TemporaryDirectory(prefix="enclosure-misses-") as workdir:
                    workload = WORKLOADS[name](np.random.default_rng(seed), workdir)
                roots = misses = 0
                for label, graph, window in workload.cases:
                    sign = series_sign(secular_series(graph))
                    spectrum = solve_graph(graph, window)
                    roots += len(spectrum)
                    for entry in spectrum:
                        k, r = mp.mpf(entry.wavenumber), mp.mpf(entry.enclosure)
                        if sign(k - r) * sign(k + r) >= 0:
                            misses += 1
                            print(f"miss {name} {seed} {label} k={entry.wavenumber!r} "
                                  f"enclosure={entry.enclosure!r}", flush=True)
                print(f"{name} {seed} roots {roots} misses {misses}", flush=True)
                all_roots, all_misses = all_roots + roots, all_misses + misses
            totals.append(f"{name} total roots {all_roots} misses {all_misses}")
    print("\n".join(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
