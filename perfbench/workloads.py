"""The benchmark workloads: seeded inputs, ops, and correctness checks.

Each workload turns a seed into inputs, exposes the ops one pass runs,
and checks the outputs of every op outside the timed region.  The
library only ever sees the generated graphs, series and config files.

- ``graph_build``: three 8-bond graphs solved end to end on (0, 100].
  8 bonds is the expansion cap, so ``transfer_determinant`` does most of
  the work.
- ``wide_window``: 6- and 7-bond graphs on windows holding about 2,000
  roots each, so separator descent and series evaluation dominate.  The
  series have 21 and 63 terms, on both sides of the 48-term switch in
  ``evaluate_array``.
- ``cli_batch``: the four CLI commands as subprocesses on one config.
  ``verify`` runs on the first quarter of the window with a scan grid 20
  times the default density: at the default density its scan steps over
  pairs of roots closer than the grid on some seeds and reports a false
  mismatch.  That default-density scan of the whole window is still made
  by the check, and a disagreement it has is printed as a finding.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from qgspectra import cli as qg_cli
from qgspectra import oracle as qg_oracle
from qgspectra import solver as qg_solver
from qgspectra.graphs import BondSpec, QuantumGraph, VertexSpec
from qgspectra.series import SpectralSeries

# Solver and oracle roots agree when they differ by at most this much,
# relative to max(1, k).  Solver enclosures are near 1e-13 relative and the
# scan bisects to 1e-12 absolute, so this leaves a wide margin.
PAIR_TOL = 1e-9
# Grid points per leading half-period of the scans that settle a disagreement.
FINE_OVERSAMPLING = 5000
WHEEL_EDGES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1))
CLI_COMMANDS = ("solve", "verify", "sample", "series")
VERIFY_KMAX = 2500.0
VERIFY_OVERSAMPLING = 1000
COMMAND_ARGS = {
    "verify": ("--kmax", repr(VERIFY_KMAX), "--oversampling", str(VERIFY_OVERSAMPLING)),
}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@dataclass
class Op:
    """One timed call.  ``run`` returns the output that is checked later."""

    label: str
    run: Callable[[], Any]


@dataclass
class Verdict:
    """What the checks found for the outputs of one pass of ops.

    ``bad`` holds the positions of ops whose output is wrong: a wrong
    result, a non-zero exit code, or a verification mismatch.  ``roots``
    counts certified level-0 roots per pass and ``level_roots`` the roots
    of every derivative level.
    """

    bad: set[int] = field(default_factory=set)
    roots: int = 0
    level_roots: int = 0
    enclosure_rel_max: float = 0.0
    output_bytes: int = 0
    notes: list[str] = field(default_factory=list)     # why ops failed
    findings: list[str] = field(default_factory=list)  # reported, not failures


def _rel_enclosure(ks: np.ndarray, encl: np.ndarray) -> float:
    if len(ks) == 0:
        return 0.0
    return float(np.max(np.asarray(encl) / np.maximum(1.0, np.abs(ks))))


def _level_roots(series: SpectralSeries, window: tuple[float, float]) -> int:
    _, trace = qg_solver.descend_with_trace(qg_solver.build_chain(series), window)
    return sum(len(r) for r in trace.level_roots)


def _unpaired(a: np.ndarray, b: np.ndarray) -> tuple[list[float], list[float]]:
    """Pair two sorted root lists greedily; return what is left of each."""
    i = j = 0
    left_a: list[float] = []
    left_b: list[float] = []
    while i < len(a) and j < len(b):
        d = a[i] - b[j]
        if abs(d) <= PAIR_TOL * max(1.0, abs(b[j])):
            i += 1
            j += 1
        elif d > 0:
            left_b.append(float(b[j]))
            j += 1
        else:
            left_a.append(float(a[i]))
            i += 1
    left_a.extend(float(x) for x in a[i:])
    left_b.extend(float(x) for x in b[j:])
    return left_a, left_b


def _oracle_check(
    series: SpectralSeries, window: tuple[float, float], ks: np.ndarray
) -> tuple[str | None, str | None]:
    """Compare solver roots with the dense scan; return (error, finding).

    The scan's default grid can step over a pair of roots closer than its
    spacing.  Each disagreement is therefore settled by a much finer scan
    of the surrounding leading period; only a disagreement that survives
    it is an error.  One the fine scan settles is a finding about the
    oracle, reported but not counted as failed.
    """
    solver_only, oracle_only = _unpaired(ks, qg_oracle.scan_roots(series, window))
    if not solver_only and not oracle_only:
        return None, None
    period = 2.0 * math.pi / series.leading_action
    for x in solver_only + oracle_only:
        lo, hi = max(window[0], x - period), min(window[1], x + period)
        fine = qg_oracle.scan_roots(series, (lo, hi), FINE_OVERSAMPLING)
        left = _unpaired(ks[(ks >= lo) & (ks <= hi)], fine[(fine >= lo) & (fine <= hi)])
        if left[0] or left[1]:
            return (f"near k = {x!r} the solver alone finds {left[0]}, "
                    f"the fine scan alone {left[1]}"), None
    return None, (f"default-density scan disagreed at {solver_only + oracle_only}; "
                  f"a {FINE_OVERSAMPLING}x scan agrees with the solver")


def _settle(report, series: SpectralSeries, window: tuple[float, float],
            ks: np.ndarray) -> str:
    """Say whether a fine scan sides with the solver or with a verification report."""
    error, _ = _oracle_check(series, window, ks)
    found = f"reported {len(report.missing)} missing, {len(report.spurious)} spurious roots"
    if error is None:
        return f"{found}; a {FINE_OVERSAMPLING}x scan agrees with the solver (false mismatch)"
    return f"{found}; the fine scan confirms a solver error: {error}"


# --- graph workloads ------------------------------------------------------


def _lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    """Seed-drawn bond lengths, mean 0.65, longest about twice the shortest.

    The lengths jitter by 5% around evenly spread values and are shuffled.
    Their sum is fixed, which fixes the number of roots in a window, and
    the spread is narrow enough that the regularization order M does not
    change with the seed: without that, one seed's graph needs a whole
    derivative level more than another's.
    """
    x = rng.permutation(np.linspace(0.5, 1.0, n) * rng.uniform(0.95, 1.05, size=n))
    return x * (0.65 * n / x.sum())


def _delta(rng: np.random.Generator) -> float:
    """Seed-drawn scaling-delta strength around the README's 1.3."""
    return float(rng.uniform(1.2, 1.6))


def _star(rng: np.random.Generator, arms: int, tips: str) -> QuantumGraph:
    lengths = _lengths(rng, arms)
    vertices = [VertexSpec(0, "kirchhoff")]
    for i in range(arms):
        if tips == "dirichlet":
            vertices.append(VertexSpec(i + 1, "dirichlet"))
        else:
            vertices.append(VertexSpec(i + 1, "scaling_delta", _delta(rng)))
    bonds = [BondSpec((0, i + 1), float(L)) for i, L in enumerate(lengths)]
    return QuantumGraph(vertices=tuple(vertices), bonds=tuple(bonds))


def _wheel(rng: np.random.Generator) -> QuantumGraph:
    """5-vertex wheel: a hub joined to a 4-cycle, 8 bonds, 5 independent cycles."""
    lengths = _lengths(rng, len(WHEEL_EDGES))
    vertices = [VertexSpec(0, "kirchhoff")]
    vertices += [VertexSpec(i, "scaling_delta", _delta(rng)) for i in range(1, 5)]
    bonds = [BondSpec(e, float(L)) for e, L in zip(WHEEL_EDGES, lengths)]
    return QuantumGraph(vertices=tuple(vertices), bonds=tuple(bonds))


class GraphWorkload:
    """Graphs solved with ``solve_graph``; checked against the dense scan."""

    def __init__(self, cases: list[tuple[str, QuantumGraph, tuple[float, float]]]):
        self.cases = cases

    def ops(self) -> list[Op]:
        # The solver is looked up at call time, so a traced pass sees wrappers.
        return [
            Op(label, lambda g=graph, w=window: qg_solver.solve_graph(g, w))
            for label, graph, window in self.cases
        ]

    def check(self, outputs: list[Any], want_levels: bool) -> Verdict:
        verdict = Verdict()
        for i, ((label, graph, window), spectrum) in enumerate(zip(self.cases, outputs)):
            if spectrum is None:
                continue
            series = qg_solver.secular_series(graph)
            ks = spectrum.wavenumbers
            error, finding = _oracle_check(series, window, ks)
            if error:
                verdict.bad.add(i)
                verdict.notes.append(f"{label}: {error}")
            if finding:
                verdict.findings.append(f"{label}: {finding}")
            verdict.roots += len(ks)
            verdict.enclosure_rel_max = max(
                verdict.enclosure_rel_max,
                _rel_enclosure(ks, np.array([e.enclosure for e in spectrum])),
            )
            if want_levels:
                verdict.level_roots += _level_roots(series, window)
        return verdict

    @staticmethod
    def same(a: Any, b: Any) -> bool:
        return a.entries == b.entries


def graph_build(rng: np.random.Generator, workdir: str) -> GraphWorkload:
    window = (0.0, 100.0)
    return GraphWorkload([
        ("star8_dirichlet", _star(rng, 8, "dirichlet"), window),
        ("star8_delta", _star(rng, 8, "delta"), window),
        ("wheel5", _wheel(rng), window),
    ])


def wide_window(rng: np.random.Generator, workdir: str) -> GraphWorkload:
    return GraphWorkload([
        ("star6_dirichlet", _star(rng, 6, "dirichlet"), (0.0, 1e3)),
        ("star6_delta_high", _star(rng, 6, "delta"), (1e4, 1.1e4)),
        ("star7_dirichlet", _star(rng, 7, "dirichlet"), (0.0, 1e3)),
    ])


# --- cli_batch ------------------------------------------------------------


def _three_star_config(rng: np.random.Generator) -> dict:
    """The README three-star, every number perturbed by up to 5%."""

    def jitter(x: float) -> float:
        return float(x * rng.uniform(0.95, 1.05))

    return {
        "graph": {
            "vertices": [
                {"id": 0, "bc": "kirchhoff"},
                {"id": 1, "bc": "dirichlet"},
                {"id": 2, "bc": "delta", "lambda": jitter(1.3)},
                {"id": 3, "bc": "dirichlet"},
            ],
            "bonds": [
                {"from": 0, "to": 1, "length": jitter(1.0)},
                {"from": 0, "to": 2, "length": jitter(0.71), "potential_lambda": jitter(0.25)},
                {"from": 0, "to": 3, "length": jitter(0.43)},
            ],
        },
        "window": {"kmin": 0.0, "kmax": 1e4},
    }


class CliWorkload:
    """``python -m qgspectra <command> <config>`` run one at a time.

    A traced pass starts the child through ``traced_cli.py`` instead, which
    records the child's spans and writes them to a file for adoption.
    """

    def __init__(self, rng: np.random.Generator, workdir: str):
        self.workdir = workdir
        self.config_path = os.path.join(workdir, "cli_config.json")
        self.text = json.dumps(_three_star_config(rng), indent=2)
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.tracer = None

    def _invoke(self, command: str) -> tuple[int, bytes]:
        extra = COMMAND_ARGS.get(command, ())
        if self.tracer is None:
            argv = [sys.executable, "-m", "qgspectra", command, self.config_path, *extra]
            proc = subprocess.run(argv, capture_output=True, env=self.env, check=False)
            return proc.returncode, proc.stdout
        spans_path = os.path.join(self.workdir, f"child_spans_{os.getpid()}.json")
        here = os.path.dirname(os.path.abspath(__file__))
        argv = [sys.executable, os.path.join(here, "traced_cli.py"), spans_path,
                command, self.config_path, *extra]
        parent = self.tracer.current  # the op span opened around this call
        op = self.tracer.op
        try:
            proc = subprocess.run(argv, capture_output=True, env=self.env, check=False)
            with open(spans_path, encoding="utf-8") as handle:
                self.tracer.adopt(json.load(handle), parent, op)
        finally:
            if os.path.exists(spans_path):
                os.remove(spans_path)
        return proc.returncode, proc.stdout

    def ops(self) -> list[Op]:
        return [Op(c, lambda c=c: self._invoke(c)) for c in CLI_COMMANDS]

    def check(self, outputs: list[Any], want_levels: bool) -> Verdict:
        verdict = Verdict()
        config = qg_cli.load_config(self.text)
        series = config.secular()
        chain = qg_solver.build_chain(series, config.margin)
        spectrum = qg_solver.descend(chain, config.window)
        verify_window = (config.window[0], VERIFY_KMAX)
        verify_ks = qg_solver.descend(chain, verify_window).wavenumbers
        for i, (command, output) in enumerate(zip(CLI_COMMANDS, outputs)):
            if output is None:
                continue
            code, stdout = output
            verdict.output_bytes += len(stdout)
            error = None
            if command == "verify" and code == 4:
                report = qg_oracle.VerificationReport(**json.loads(stdout))
                error = f"exit code 4, {_settle(report, series, verify_window, verify_ks)}"
            elif code != 0:
                error = f"exit code {code}"
            elif command == "verify":
                report = qg_oracle.VerificationReport(**json.loads(stdout))
                if not report.clean or report.matched != len(verify_ks):
                    error = (f"verify exited 0 but matched {report.matched} roots, "
                             f"the solver finds {len(verify_ks)}")
            elif command == "solve":
                expected = "n,k_n,E_n,enclosure\n" + "".join(
                    f"{e.index},{e.wavenumber:.17g},{e.energy:.17g},{e.enclosure:.17g}\n"
                    for e in spectrum
                )
                if stdout.decode() != expected:
                    error = "CSV differs from the in-process spectrum"
                oracle_error, finding = _oracle_check(series, config.window, spectrum.wavenumbers)
                error = error or oracle_error
                if finding:  # what ``verify`` at its default grid would report
                    verdict.findings.append(f"solve, default-grid verify: {finding}")
                rows = list(csv.DictReader(io.StringIO(stdout.decode())))
                ks = np.array([float(r["k_n"]) for r in rows])
                verdict.roots += len(ks)
                verdict.enclosure_rel_max = _rel_enclosure(
                    ks, np.array([float(r["enclosure"]) for r in rows])
                )
            elif command == "series":
                doc = json.loads(stdout)["series"]
                terms = [[t.action, t.amplitude, t.phase] for t in series.terms]
                if (doc["s0"], doc["phi0"], doc["terms"]) != (
                    series.leading_action, series.leading_phase, terms
                ):
                    error = "series differs from the in-process series"
            elif command == "sample":
                lines = stdout.count(b"\n")
                order = qg_solver.build_chain(series, config.margin).order
                header = "k," + ",".join(f"g{m}" for m in range(order + 1))
                step = math.pi / (series.leading_action * 20)
                expected = math.ceil((config.window[1] - config.window[0]) / step) + 2
                if not stdout.startswith(header.encode() + b"\n") or lines != expected:
                    error = f"sample has {lines} lines, expected {expected}"
            if error:
                verdict.bad.add(i)
                verdict.notes.append(f"{command}: {error}")
        if want_levels:  # solve's descent and verify's
            verdict.level_roots = (_level_roots(series, config.window)
                                   + _level_roots(series, verify_window))
        return verdict

    @staticmethod
    def same(a: Any, b: Any) -> bool:
        return a == b


def cli_batch(rng: np.random.Generator, workdir: str) -> CliWorkload:
    return CliWorkload(rng, workdir)


WORKLOADS = {
    "graph_build": graph_build,
    "wide_window": wide_window,
    "cli_batch": cli_batch,
}
