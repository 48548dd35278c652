#!/usr/bin/env python3
"""Print one sha256 of the solver's output per benchmark workload and seed,
and count the graph roots whose enclosure holds no 40-digit sign change.

    python scripts/spectra_digest.py [--tree DIR] [--seed S ...]

The inputs are those of ``perfbench/run.py --seed S``, made by the
generators in ``perfbench/workloads.py``, and the code is the checkout
``DIR``'s ``src`` (default: the checkout holding this script).  Each
graph_build and wide_window case is solved once with ``solve_graph``; the
digest covers every entry's index, k, k**2 and enclosure to the last bit,
and a root misses when the float secular series, evaluated in 40-digit
mpmath, has the same sign at ``k - enclosure`` and at ``k + enclosure``
(``misses`` of ``tests/reference.py`` in the checkout holding this script,
the rule the 40-digit test tier applies).  It prints a
``miss <workload> <seed> <case> k=... enclosure=...`` line per miss, a
``<workload> <seed> <sha256> roots <N> misses <M>`` line per seed and, last,
each workload's totals.  For cli_batch the digest covers the exit code and
stdout of ``solve``, ``verify`` and ``sample`` on the seed's config, run as
the workload runs them, in a ``cli_batch <seed> <sha256>`` line.  Two
checkouts that print the same digests give bit-identical spectra and
byte-identical CLI output on those seeds.  Needs mpmath.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
CLI_COMMANDS = ("solve", "verify", "sample")


def load_reference():
    spec = importlib.util.spec_from_file_location("tests_reference", ROOT / "tests" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose code is digested")
    parser.add_argument("--seed", type=int, action="append", help="default: 1 to 5 and 301")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    from qgspectra import secular_series, solve_graph
    from workloads import WORKLOADS

    reference = load_reference()
    mpmath.mp.dps = 40
    totals = {}
    for name, make in WORKLOADS.items():
        for seed in args.seed or [1, 2, 3, 4, 5, 301]:
            digest = hashlib.sha256()
            with tempfile.TemporaryDirectory(prefix="spectra-digest-") as workdir:
                workload = make(np.random.default_rng(seed), workdir)
                if name == "cli_batch":
                    for command in CLI_COMMANDS:
                        code, stdout = workload._invoke(command)
                        digest.update(f"{command} exit {code}\n".encode() + stdout)
                    print(f"{name} {seed} {digest.hexdigest()}", flush=True)
                    continue
            roots = misses = 0
            for label, graph, window in workload.cases:
                spectrum = solve_graph(graph, window)
                digest.update(repr((label, spectrum.entries)).encode())
                found = reference.misses(secular_series(graph), [(e.wavenumber, e.enclosure) for e in spectrum])
                for k, r in found:
                    print(f"miss {name} {seed} {label} k={k!r} enclosure={r!r}", flush=True)
                roots, misses = roots + len(spectrum), misses + len(found)
            print(f"{name} {seed} {digest.hexdigest()} roots {roots} misses {misses}", flush=True)
            all_roots, all_misses = totals.get(name, (0, 0))
            totals[name] = (all_roots + roots, all_misses + misses)
    for name, (roots, misses) in totals.items():
        print(f"{name} total roots {roots} misses {misses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
