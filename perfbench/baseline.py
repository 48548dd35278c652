"""Record a baseline: every workload over several seeds, medians and spreads.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed with tracing off, and once per
workload with tracing on (first seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each end-to-end metric it stores
the median over seeds and the quartile spread as a share of the median,
the same statistic the bounds in BENCHMARK.json are checked with.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "out", f"result-{tag}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, as in 1-10")
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    doc = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = one_run(workload, seeds[0], spec["run_seconds"], 1)
        doc["provenance"] = runs[0]["provenance"]
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f"seed {r['provenance']['seed']}: {n}" for r in runs for n in r["notes"]],
            "end_to_end": {
                m["name"]: dict(summary([r["metrics"][m["name"]][0] for r in runs]),
                                unit=m["unit"])
                for m in spec["end_to_end"]
            },
            "per_layer_seed": seeds[0],
            "per_layer": {key: {"value": value, "unit": unit}
                          for key, (value, unit, _) in traced["metrics"].items()},
        }
        print(workload, {k: round(v["median"], 6)
                         for k, v in doc["workloads"][workload]["end_to_end"].items()}, flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
