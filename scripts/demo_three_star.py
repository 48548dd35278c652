#!/usr/bin/env python3
"""Solve a three-arm star graph end to end and cross-check the result.

Builds the star (Kirchhoff center, Dirichlet tips), prints its secular
series, the regularization order and the first eigenvalues with certified
enclosures, and checks every root against the eigenphase count of the
graph's bond map D(k)Sigma, one count per cell between consecutive roots.
Exits 1 if the check finds a missing or spurious root.
"""

import argparse
import time

import numpy as np

from qgspectra import (
    BondSpec,
    QuantumGraph,
    VertexSpec,
    build_chain,
    descend,
    expand_secular,
    verify_spectrum,
)
from qgspectra.series import regularity_sum


def build_star(lengths):
    vertices = [VertexSpec(0, "kirchhoff")]
    vertices += [VertexSpec(i + 1, "dirichlet") for i in range(len(lengths))]
    bonds = tuple(BondSpec((0, i + 1), L) for i, L in enumerate(lengths))
    return QuantumGraph(vertices=tuple(vertices), bonds=bonds)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--lengths", type=float, nargs="+", default=[1.0, 0.71, 0.43],
        help="arm lengths (default: 1.0 0.71 0.43)",
    )
    parser.add_argument("--kmax", type=float, default=100.0, help="window upper edge")
    parser.add_argument("--levels", type=int, default=12, help="eigenvalues to print")
    args = parser.parse_args()

    graph = build_star(args.lengths)
    t0 = time.perf_counter()
    expansion = expand_secular(graph)
    series = expansion.series
    chain = build_chain(series)
    spectrum = descend(chain, (0.0, args.kmax))
    t1 = time.perf_counter()

    print(f"star with arms {args.lengths}")
    print(f"  leading action  S0   = {series.leading_action:.12g}")
    print(f"  leading phase   phi0 = {series.leading_phase:.12g}")
    print(f"  term sum             = {regularity_sum(series):.12g}")
    print(f"  regular at level M   = {chain.order}")
    print("  terms (action, amplitude, phase):")
    for t in series.terms:
        print(f"    {t.action:<12.8g} {t.amplitude:<12.8g} {t.phase:.8g}")

    print(f"\nfirst {args.levels} levels of {len(spectrum)} in (0, {args.kmax}]:")
    print(f"  {'n':>4} {'k_n':>20} {'E_n':>20} {'enclosure':>12}")
    for e in spectrum.entries[: args.levels]:
        print(f"  {e.index:>4} {e.wavenumber:>20.14f} {e.energy:>20.12f} {e.enclosure:>12.3e}")

    report = verify_spectrum(graph, (0.0, args.kmax))
    print(
        f"\neigenphase count: {report.matched} matched, {len(report.missing)} missing, "
        f"{len(report.spurious)} spurious, largest distance from an integer "
        f"{report.max_deviation:.3e}"
    )
    print(f"solve time {t1 - t0:.3f} s")

    weyl = series.leading_action * args.kmax / np.pi
    print(f"mean-density prediction S0*kmax/pi = {weyl:.1f} roots (found {len(spectrum)})")
    return 0 if report.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
