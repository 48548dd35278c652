#!/usr/bin/env python3
"""Print one sha256 of the solver's output per benchmark workload and seed.

    python scripts/spectra_digest.py [--tree DIR] [--seed S ...]

The inputs are those of ``perfbench/run.py --seed S``, made by the
generators in ``perfbench/workloads.py``, and the code is the checkout
``DIR``'s ``src`` (default: the checkout holding this script).  For
graph_build and wide_window the digest covers every case's ``solve_graph``
spectrum, each entry's index, k, k**2 and enclosure to the last bit.  For
cli_batch it covers the exit code and stdout of ``solve``, ``verify`` and
``sample`` on the seed's config, run as the workload runs them.  Two
checkouts that print the same lines give bit-identical spectra and
byte-identical CLI output on those seeds: run it on both and compare.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI_COMMANDS = ("solve", "verify", "sample")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout whose code is digested")
    parser.add_argument("--seed", type=int, action="append", help="default: 1 to 5 and 301")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np
    from qgspectra import solve_graph
    from workloads import WORKLOADS

    for name, make in WORKLOADS.items():
        for seed in args.seed or [1, 2, 3, 4, 5, 301]:
            digest = hashlib.sha256()
            with tempfile.TemporaryDirectory(prefix="spectra-digest-") as workdir:
                workload = make(np.random.default_rng(seed), workdir)
                if name == "cli_batch":
                    for command in CLI_COMMANDS:
                        code, stdout = workload._invoke(command)
                        digest.update(f"{command} exit {code}\n".encode() + stdout)
                else:
                    for label, graph, window in workload.cases:
                        digest.update(repr((label, solve_graph(graph, window).entries)).encode())
            print(f"{name} {seed} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
