#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts into ``BENCH_<pr>.json``.

    python scripts/bench_record.py --pr N --tree LABEL=DIR [--tree LABEL=DIR ...]
        [--seed S ...] [--seconds T] [--smoke] [--out PATH]

For every workload that a checkout's ``BENCHMARK.json`` declares, and every
seed, this runs, in the checkout ``DIR``,

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

and reads the JSON object on the last line of its output.  The checkouts
take turns: for each workload and seed every label runs once, in the order
given on even-numbered seeds and in reverse on odd-numbered ones, so drift
of the machine over the recording falls on every label alike.  Bytecode
comes from one fresh ``PYTHONPYCACHEPREFIX`` directory, never from a
tree's ``__pycache__``, whatever state that is in: a ``--smoke`` run of
each workload in each checkout first compiles into it what the runs
import, then every measured run reads it under ``PYTHONDONTWRITEBYTECODE=1``.
So every checkout imports from bytecode compiled the same way, as an
installed package does, and no run compiles numpy afresh.

The file ``BENCH_<N>.json`` in the current directory (or ``--out``) then
holds, under each ``LABEL``, each workload's end-to-end metrics as the
median over the seeds, with the runs' failed-op count, and the checkout's
git sha, source digest, Python and numpy versions as ``perfbench/run.py``
reports them.  Other labels already in the file are kept.  ``--smoke``
passes ``--smoke`` on: one op per pass, for a quick check that the harness
and this script still run.  The exit code is 1 when any run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROVENANCE = ("git_sha", "src_sha256", "python", "numpy")


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool,
             env: dict[str, str]) -> tuple[dict, dict]:
    """One benchmark run: its final JSON object and its provenance lines."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: {' '.join(argv)} in {tree} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    provenance = {}
    for line in lines:
        key, _, value = line.strip().partition(": ")
        if key.startswith("provenance."):
            provenance[key.removeprefix("provenance.")] = value
    return json.loads(lines[-1]), provenance


def declared_workloads(tree: Path) -> list[str]:
    with open(tree / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return [w["name"] for w in spec["workloads"]]


def record(trees: dict[str, Path], seeds: list[int], seconds: float, smoke: bool,
           cache: str) -> tuple[dict[str, dict], bool]:
    """The entry of each label, and whether every run was correct."""
    declared = {label: declared_workloads(tree) for label, tree in trees.items()}
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for label, tree in trees.items():
        for workload in declared[label]:
            run_once(tree, workload, seeds[0], 0.0, True, env)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    workloads = list(dict.fromkeys(w for names in declared.values() for w in names))
    entries = {label: {"seconds": seconds, "seeds": seeds, "smoke": smoke, "workloads": {}}
               for label in trees}
    correct = True
    for workload in workloads:
        results: dict[str, list[dict]] = {label: [] for label in trees if workload in declared[label]}
        for i, seed in enumerate(seeds):
            for label in list(results)[:: -1 if i % 2 else 1]:
                result, provenance = run_once(trees[label], workload, seed, seconds, smoke, env)
                print(f"{label} {workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}", flush=True)
                results[label].append(result)
                entries[label].update((key, provenance.get(key)) for key in PROVENANCE)
        for label, runs in results.items():
            correct = correct and all(r["correct"] for r in runs)
            metrics = {
                name: statistics.median(r["metrics"][name]["value"] for r in runs)
                for name in runs[0]["metrics"]
                if all(r["metrics"][name]["value"] is not None for r in runs)
            }
            metrics["failed"] = sum(r["failed"] for r in runs)
            metrics["attempted"] = sum(r["attempted"] for r in runs)
            entries[label]["workloads"][workload] = metrics
    return entries, correct


def labelled_tree(text: str) -> tuple[str, Path]:
    label, sep, tree = text.partition("=")
    if not (label and sep and tree):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(tree).resolve()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number N of BENCH_<N>.json")
    parser.add_argument("--tree", type=labelled_tree, action="append", required=True,
                        metavar="LABEL=DIR", help="a checkout to benchmark and its entry's name, "
                        "e.g. parent=../base; repeat for each checkout")
    parser.add_argument("--seed", type=int, action="append", help="default: 301, 302 and 303")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured loop per run")
    parser.add_argument("--smoke", action="store_true", help="one op per pass")
    parser.add_argument("--out", type=Path, help="default: BENCH_<N>.json in the current directory")
    args = parser.parse_args(argv)
    trees = dict(args.tree)
    if len(trees) < len(args.tree):
        parser.error("each --tree needs its own label")

    out = args.out or Path(f"BENCH_{args.pr}.json")
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"pr": args.pr}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        entries, correct = record(trees, args.seed or [301, 302, 303], args.seconds, args.smoke, cache)
    doc.update(entries)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {', '.join(entries)} to {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
