#!/usr/bin/env python3
"""Record the benchmark of one checkout into ``BENCH_<pr>.json``.

    python scripts/bench_record.py --pr N --label NAME [--tree DIR]
        [--seed S ...] [--seconds T] [--smoke] [--out PATH]

For every workload that the checkout's ``BENCHMARK.json`` declares, and every
seed, this runs, in the checkout ``--tree`` (default: the one holding this
script),

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

and reads the JSON object on the last line of its output.  The file
``BENCH_<N>.json`` in the current directory (or ``--out``) then holds, under
``NAME``, each workload's end-to-end metrics as the median over the seeds,
with the runs' failed-op count, and the checkout's git sha, source digest,
Python and numpy versions as ``perfbench/run.py`` reports them.  Other labels
already in the file are kept, so a parent and a change can be recorded one
after the other.  ``--smoke`` passes ``--smoke`` on: one op per pass, for a
quick check that the harness and this script still run.  The exit code is
1 when any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = ("git_sha", "src_sha256", "python", "numpy")


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """One benchmark run: its final JSON object and its provenance lines."""
    argv = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: {' '.join(argv)} printed no result (exit {proc.returncode}):\n{proc.stderr}")
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


def record(tree: Path, seeds: list[int], seconds: float, smoke: bool) -> tuple[dict, bool]:
    """The entry of one label, and whether every run was correct."""
    entry: dict = {"seconds": seconds, "seeds": seeds, "smoke": smoke, "workloads": {}}
    correct = True
    for workload in declared_workloads(tree):
        results = []
        for seed in seeds:
            result, provenance = run_once(tree, workload, seed, seconds, smoke)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
            results.append(result)
            entry.update((key, provenance.get(key)) for key in PROVENANCE)
        correct = correct and all(r["correct"] for r in results)
        metrics = {
            name: statistics.median(r["metrics"][name]["value"] for r in results)
            for name in results[0]["metrics"]
            if all(r["metrics"][name]["value"] is not None for r in results)
        }
        metrics["failed"] = sum(r["failed"] for r in results)
        metrics["attempted"] = sum(r["attempted"] for r in results)
        entry["workloads"][workload] = metrics
    return entry, correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number N of BENCH_<N>.json")
    parser.add_argument("--label", required=True, help="name of this checkout's entry, e.g. parent or change")
    parser.add_argument("--tree", type=Path, default=ROOT, help="checkout to benchmark")
    parser.add_argument("--seed", type=int, action="append", help="default: 301, 302 and 303")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured loop per run")
    parser.add_argument("--smoke", action="store_true", help="one op per pass")
    parser.add_argument("--out", type=Path, help="default: BENCH_<N>.json in the current directory")
    args = parser.parse_args(argv)

    out = args.out or Path(f"BENCH_{args.pr}.json")
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"pr": args.pr}
    entry, correct = record(args.tree.resolve(), args.seed or [301, 302, 303], args.seconds, args.smoke)
    doc[args.label] = entry
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.label} to {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
