"""qgspectra benchmark: end-to-end metrics, or per-layer metrics from a traced pass.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout, never from an
installed copy, with OpenBLAS limited to one thread.  The seed fixes every input; ``--seconds`` bounds the
measured loop, which repeats whole passes (one pass runs every op of the
workload once).  Every op's output is checked outside the timed region.

Every op is preceded by one run of the reference kernel in ``speed.py``.
The timing metrics named ``*_norm_*`` divide each pass's time by the mean
kernel time of that pass and multiply by ``REF_SECONDS``: seconds at a
fixed host speed, so that a slow minute on a shared VM does not read as a
slow program.  ``setup_s`` scales each set-up sample by a kernel run
next to it in the same way.  The raw wall-clock figures are printed beside them.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes, and reports
per-layer metrics plus the tracing overhead.  Human-readable lines with units and sample counts come first;
the last line of standard output is one JSON object.  The full result,
with provenance, is also written to ``perfbench/out/``, and a traced run
writes its spans there as well.

An op that raises, exits non-zero, returns a wrong output or one that
differs from the first pass's counts in ``failed``, makes ``correct``
false, and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

# One BLAS thread, in this process and every child it starts.  Starting
# OpenBLAS's second thread made the import of numpy, and so set-up time,
# swing between 0.12 and 0.20 s for minutes at a time on a shared 2-core
# VM, with the load on the other core; with one thread it stayed at 0.12 s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qgspectra; "
    "print(repr(time.perf_counter() - t))"
)
LAYERS = ("graphs", "series", "solver", "oracle", "cli")

from speed import REF_SECONDS, SpeedGauge  # noqa: E402  (imports no numpy yet)


def import_library() -> float:
    """Import qgspectra from the checkout's ``src/``; return the seconds it took."""
    package = os.path.join(SRC, "qgspectra", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"error: no qgspectra sources at {package}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import qgspectra

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(qgspectra.__file__)) != os.path.dirname(package):
        raise SystemExit(f"error: qgspectra was imported from {qgspectra.__file__}")
    return elapsed


@dataclass
class Pass:
    """Op times of one pass, and the reference kernel's time before each op."""

    op_seconds: list[float]
    ref_seconds: list[float]

    @property
    def wall(self) -> float:
        return sum(self.op_seconds)

    @property
    def scale(self) -> float:
        """Factor from this pass's seconds to seconds at the reference speed."""
        return REF_SECONDS * len(self.ref_seconds) / sum(self.ref_seconds)

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale


class Loop:
    """Runs whole passes until the time is up; sorts each op's outcome.

    Given a tracer, the loop alternates untraced and traced passes, so both
    kinds see the machine under the same conditions; the tracer is
    installed for the traced passes only.  Per op position it counts passes
    where the op raised, where its output differed from the first pass's,
    and where it reproduced it.  The check of the first pass's outputs then
    decides the reproduced ones.
    """

    def __init__(self, workload, ops, gauge: SpeedGauge, tracer=None):
        self.workload = workload
        self.ops = ops
        self.tracer = tracer
        self.gauge = gauge
        self.passes: list[Pass] = []  # untraced
        self.traced: list[Pass] = []
        self.reference: list | None = None  # outputs of the first pass
        self.raised = [0] * len(ops)
        self.differed = [0] * len(ops)
        self.reproduced = [0] * len(ops)
        self.errors: dict[str, str] = {}  # first traceback per op label

    def run(self, seconds: float, between=None) -> None:
        """Repeat passes for ``seconds``; call ``between(share done)`` after each."""
        began = time.perf_counter()
        while True:
            if self.tracer is not None and len(self.traced) < len(self.passes):
                end = self._traced_pass()
            else:
                end = self._pass(None, self.passes)
            done = (end - began) / seconds if seconds > 0 else 1.0
            if between is not None:
                between(done)
            if done >= 1.0 and (self.tracer is None or self.traced):
                return

    def _traced_pass(self) -> float:
        tracer, workload = self.tracer, self.workload
        tracer.install()
        workload.tracer = tracer
        try:
            return self._pass(tracer, self.traced)
        finally:
            tracer.uninstall()
            workload.tracer = None

    def _pass(self, tracer, passes: list[Pass]) -> float:
        """Run every op once; op ids of traced spans count across traced passes."""
        first_id = len(passes) * len(self.ops)
        outputs, op_seconds, ref_seconds = [], [], []
        for i, op in enumerate(self.ops):
            ref_seconds.append(self.gauge.measure())
            outputs.append(self._one(op, tracer, first_id + i, op_seconds))
        passes.append(Pass(op_seconds, ref_seconds))
        self._compare(outputs)
        return time.perf_counter()

    def _one(self, op, tracer, op_id: int, op_seconds: list[float]):
        if tracer is not None:
            tracer.op = op_id
            span = tracer.open("bench.op")
        t0 = time.perf_counter()
        try:
            return op.run()
        except Exception:  # an op that raises fails the run, which goes on
            self.errors.setdefault(op.label, traceback.format_exc(limit=3))
            return None
        finally:
            op_seconds.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.close(span)

    def _compare(self, outputs: list) -> None:
        if self.reference is None:
            self.reference = outputs
        for i, (out, ref) in enumerate(zip(outputs, self.reference)):
            if out is None:
                self.raised[i] += 1
            elif ref is None or not self.workload.same(out, ref):
                self.differed[i] += 1
            else:
                self.reproduced[i] += 1

    def attempted(self) -> int:
        return (len(self.passes) + len(self.traced)) * len(self.ops)

    def failed(self, verdict) -> int:
        """Ops that raised, did not reproduce, or whose output failed a check."""
        return (sum(self.raised) + sum(self.differed)
                + sum(self.reproduced[i] for i in verdict.bad))


class Setup:
    """Set-up time samples: an import of qgspectra plus input generation.

    The first sample uses this process's own import, taking ``import_s``;
    each further one imports in a fresh interpreter.  ``spread`` takes the
    further samples between passes, evenly over the measured loop, so
    their median sees the machine as the passes do.  Each sample is also
    scaled to the reference speed by a run of the gauge next to it.
    """

    def __init__(self, name: str, seed: int, repeats: int, import_s: float,
                 gauge: SpeedGauge):
        from workloads import WORKLOADS

        self.make = lambda: WORKLOADS[name](_rng(seed), OUT)
        self.repeats = repeats
        self.gauge = gauge
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.workload = self._sample(import_s)

    def _sample(self, import_s: float):
        t0 = time.perf_counter()
        workload = self.make()
        self.times.append(import_s + time.perf_counter() - t0)
        self.scaled.append(self.times[-1] * REF_SECONDS / self.gauge.measure())
        return workload

    def spread(self, done: float) -> None:
        """Take samples until their count matches ``done``, the loop's share done."""
        while len(self.times) < 1 + round((self.repeats - 1) * min(done, 1.0)):
            probe = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                env=self.env, check=True,
            )
            self._sample(float(probe.stdout.strip()))


def _rng(seed: int):
    import numpy as np

    return np.random.default_rng(seed)


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# --- per-layer metrics from spans ------------------------------------------


def layer_metrics(spans: list[list], passes: list[Pass], verdict, n_ops: int) -> dict:
    """Per-pass layer figures from the traced passes, as medians over passes."""
    from spans import CALLER, COUNT, END, NAME, OP, PARENT, START, self_times

    selfs = self_times(spans)
    per_pass: list[dict[str, float]] = [dict() for _ in passes]
    scans_seen: set[int] = set()

    def add(p: dict, key: str, value: float) -> None:
        p[key] = p.get(key, 0.0) + value

    for i, s in enumerate(spans):
        index = s[OP] // n_ops  # op ids count from 0 across the traced passes
        if not 0 <= index < len(passes):
            continue
        p = per_pass[index]
        name, dur, own = s[NAME], s[END] - s[START], selfs[i]
        layer = name.split(".", 1)[0]
        if layer == "bench":
            continue
        add(p, f"layer.{layer}_self_s", own)
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if parent is None or parent[NAME] == "bench.op":
            add(p, "covered_s", dur)
        if name == "graphs.transfer_determinant":
            add(p, "graphs.determinant_s", own)
            add(p, "graphs.determinant_monomials", s[COUNT])
        elif name == "graphs.bond_scattering_matrix":
            add(p, "graphs.scattering_s", dur)
        elif name in ("graphs.expand_secular", "graphs.secular_series"):
            add(p, "graphs.realify_s", own)
            if name == "graphs.expand_secular":
                add(p, "graphs.series_terms", s[COUNT])
        elif name == "series.evaluate_array":
            add(p, f"series.{s[CALLER]}.eval_calls", 1)
            add(p, f"series.{s[CALLER]}.eval_points", s[COUNT])
            add(p, f"series.{s[CALLER]}.eval_s", dur)
            if (s[CALLER] == "oracle" and parent[NAME] == "oracle.scan_roots"
                    and s[PARENT] not in scans_seen):
                scans_seen.add(s[PARENT])  # a scan's first own evaluation is its grid
                add(p, "oracle.scan_points", s[COUNT])
        elif name == "solver.build_chain":
            add(p, "solver.chain_s", dur)
            add(p, "chain_calls", 1)
            add(p, "chain_levels", s[COUNT])
        elif name == "solver.descend":
            add(p, "solver.descend_s", dur)
            add(p, "solver.descend_self_s", own)
            add(p, "descend_roots", s[COUNT])
        elif name == "oracle.scan_roots":
            add(p, "oracle.scan_s", dur)
        elif name == "oracle.verify_spectrum":
            add(p, "oracle.pair_s", own)
        elif name == "cli.import":
            add(p, "cli.import_s", dur)
        elif name == "cli.load_config":
            add(p, "cli.load_config_s", dur)
        elif name == "cli.run":
            add(p, "cli.format_s", own)

    walls = [p.wall for p in passes]
    wall = statistics.median(walls)

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in per_pass)

    out: dict[str, tuple[float, str]] = {}

    def seconds_and_share(key: str) -> None:
        value = med(key)
        out[key] = (value, "s")
        out[key[: -len("_s")] + "_pct"] = (100.0 * value / wall, "%")

    seconds_and_share("graphs.determinant_s")
    out["graphs.determinant_monomials"] = (med("graphs.determinant_monomials"), "count")
    seconds_and_share("graphs.scattering_s")
    seconds_and_share("graphs.realify_s")
    out["graphs.series_terms"] = (med("graphs.series_terms"), "count")
    for caller in ("solver", "oracle"):
        out[f"series.{caller}.eval_calls"] = (med(f"series.{caller}.eval_calls"), "count")
        out[f"series.{caller}.eval_points"] = (med(f"series.{caller}.eval_points"), "count")
        seconds_and_share(f"series.{caller}.eval_s")
    seconds_and_share("solver.chain_s")
    calls = med("chain_calls")
    out["solver.chain_order"] = (med("chain_levels") / calls if calls else 0.0, "levels")
    seconds_and_share("solver.descend_s")
    seconds_and_share("solver.descend_self_s")
    out["solver.level_roots"] = (float(verdict.level_roots), "count")
    roots = med("descend_roots")  # level-0 roots of every descent, verify's too
    out["solver.eval_points_per_root"] = (
        med("series.solver.eval_points") / roots if roots else 0.0, "points/root"
    )
    seconds_and_share("oracle.scan_s")
    out["oracle.scan_points"] = (med("oracle.scan_points"), "count")
    seconds_and_share("oracle.pair_s")
    seconds_and_share("cli.import_s")
    seconds_and_share("cli.load_config_s")
    seconds_and_share("cli.format_s")
    out["cli.output_bytes"] = (float(verdict.output_bytes), "B")
    for layer in LAYERS:
        seconds_and_share(f"layer.{layer}_self_s")
    covered = statistics.median(
        p.get("covered_s", 0.0) / w for p, w in zip(per_pass, walls)
    )
    out["trace.wall_s"] = (wall, "s")
    out["trace.coverage_pct"] = (100.0 * covered, "%")
    out["trace.unattributed_s"] = (
        statistics.median(w - p.get("covered_s", 0.0) for p, w in zip(per_pass, walls)), "s"
    )
    return out


# --- provenance --------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "qgspectra")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    git_sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if probe.returncode == 0:
            git_sha = probe.stdout.strip()
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return str(getter())
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# --- main ----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float) -> dict:
    """One benchmark run; returns the result document.

    ``metrics`` maps every measured name to (value, unit, sample count).
    A traced run measures the end-to-end metrics on its untraced passes;
    its peak memory includes the spans it keeps.
    """
    from spans import Tracer

    os.makedirs(OUT, exist_ok=True)
    gauge = SpeedGauge()
    setup = Setup(name, seed, 1 if smoke else SETUP_REPEATS, import_s, gauge)
    workload = setup.workload
    ops = workload.ops()[:1] if smoke else workload.ops()

    tracer = Tracer() if trace else None
    loop = Loop(workload, ops, gauge, tracer)
    loop.run(seconds, between=setup.spread)
    rss = peak_rss_mib(children=name == "cli_batch")

    verdict = workload.check(loop.reference, want_levels=trace)
    attempted = loop.attempted()
    failed = loop.failed(verdict)
    notes = verdict.notes + [f"{label} raised: {tb}" for label, tb in loop.errors.items()]
    if sum(loop.differed):
        notes.append(f"{sum(loop.differed)} op outputs differed from the first pass's")

    walls = [p.wall for p in loop.passes]
    norm_walls = [p.norm_wall for p in loop.passes]
    op_s = [t for p in loop.passes for t in p.op_seconds]
    norm_op_s = [t * p.scale for p in loop.passes for t in p.op_seconds]
    refs = [t for p in loop.passes for t in p.ref_seconds]
    wall, norm_wall = statistics.median(walls), statistics.median(norm_walls)

    def p90(values: list[float]) -> float | None:
        # A percentile is reported only with ten samples beyond it.
        return quantile(values, 0.9) if len(values) >= 100 else None

    metrics = {
        "setup_s": (statistics.median(setup.scaled), "s", len(setup.scaled)),
        "wall_norm_s": (norm_wall, "s", len(walls)),
        "roots_per_norm_s": (verdict.roots / norm_wall, "1/s", len(walls)),
        "op_p50_norm_s": (statistics.median(norm_op_s), "s", len(op_s)),
        "op_p90_norm_s": (p90(norm_op_s), "s", len(op_s)),
        "fail_frac": (failed / attempted, "1", attempted),
        "peak_rss_mib": (rss, "MiB", 1),
        "enclosure_rel_max": (verdict.enclosure_rel_max, "1", verdict.roots),
        # Raw wall-clock figures, printed only: they follow the host's speed.
        "ref_kernel_s": (statistics.median(refs), "s", len(refs)),
        "setup_raw_s": (statistics.median(setup.times), "s", len(setup.times)),
        "wall_s": (wall, "s", len(walls)),
        "roots_per_s": (verdict.roots / wall, "1/s", len(walls)),
        "op_p50_s": (statistics.median(op_s), "s", len(op_s)),
        "op_p90_s": (p90(op_s), "s", len(op_s)),
    }
    if trace:
        n = len(loop.traced)
        for key, (value, unit) in layer_metrics(tracer.spans, loop.traced, verdict, len(ops)).items():
            metrics[key] = (value, unit, n)
        # Each traced pass is paired with the untraced pass just before it,
        # both at the reference speed, so a change of host speed between
        # the two does not read as tracing cost.
        overhead = statistics.median(
            t.norm_wall - p.norm_wall for p, t in zip(loop.passes, loop.traced)
        )
        metrics["trace.overhead_s"] = (overhead, "s", n)
        with open(os.path.join(OUT, f"spans-{name}-seed{seed}.json"), "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "caller", "start", "end", "parent", "op", "count"],
                       "spans": tracer.spans}, f)

    return {
        "workload": name,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "findings": verdict.findings,
        "pass_walls": walls,
        "pass_op_seconds": [p.op_seconds for p in loop.passes],
        "pass_ref_seconds": [p.ref_seconds for p in loop.passes],
        "setup_times": setup.times,
        "provenance": provenance(seed),
    }


def report(result: dict, declared: list[str]) -> str:
    """Print the human-readable lines; return the final JSON line."""
    print(f"workload {result['workload']}  trace={result['trace']}  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    if result["trace"]:
        print("  (end-to-end figures below come from the untraced passes of the run)")
    for key, (value, unit, n) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:34s} {shown:>16s} {unit:12s} n={n}")
    for key, value in result["provenance"].items():
        print(f"  provenance.{key}: {value}")
    for note in result["notes"]:
        print(f"  FAILED {note}")
    for finding in result["findings"]:
        print(f"  FINDING {finding}")
    metrics = {
        key: {"value": result["metrics"][key][0], "unit": result["metrics"][key][1]}
        for key in declared
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="first op of each pass only, one set-up: a quick self-test")
    args = parser.parse_args(argv)

    import_s = import_library()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    declared = declared_metrics(bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, import_s)
    missing = [key for key in declared if key not in result["metrics"]]
    if missing:
        raise SystemExit(f"error: declared metrics not measured: {missing}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(report(result, declared))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
