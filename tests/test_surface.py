"""Public surface: exported names, the README's examples, the error every
refused input raises and the names the traced benchmark wraps."""

import importlib
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgspectra
from qgspectra import (
    ValidationError,
    build_chain,
    canonicalize,
    descend,
    evaluate_array,
    expand_secular,
    scan_roots,
)
from qgspectra import cli
from qgspectra.graphs import transfer_determinant
from qgspectra.solver import DescentChain, base_separators

from conftest import make_star3

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


EXPORTED = [
    "BondSpec", "DegenerateSpectrum", "NotRegular", "QuantumGraph",
    "RealificationFailure", "SizeCapExceeded", "SpectralError",
    "ValidationError", "VertexSpec", "build_chain", "canonicalize",
    "derivative_series", "descend", "descend_with_trace", "evaluate_array",
    "expand_secular", "regularization_order", "scan_roots", "secular_series",
    "solve_graph", "transfer_matrix", "verify_spectrum", "vertex_scattering",
]


def test_exported_names_resolve():
    missing = [name for name in qgspectra.__all__ if not hasattr(qgspectra, name)]
    assert missing == []


def test_exported_names_are_the_documented_api():
    assert sorted(qgspectra.__all__) == EXPORTED


def test_import_does_not_load_the_cli():
    check = "import qgspectra, sys; assert 'qgspectra.cli' not in sys.modules"
    src = str(Path(qgspectra.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", check], check=True, cwd=src)


def readme_block(section, language):
    """The first ``language`` code block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"^```{language}\n(.*?)^```$", body, re.S | re.M).group(1)


def test_readme_library_example_runs():
    exec(compile(readme_block("Library use", "python"), str(README), "exec"), {})


@pytest.mark.parametrize("command", ["series", "solve", "verify"])
def test_readme_config_runs(command):
    out = io.StringIO()
    assert cli.run(command, cli.load_config(readme_block("Command line", "json")), out) == 0
    if command == "verify":
        diff = json.loads(out.getvalue())
        assert diff["missing"] == [] and diff["spurious"] == [] and diff["matched"] > 0


SERIES = canonicalize(1.0, 0.0, [(0.5, 0.3, 0.0)])

# One call per check that refuses its input, each with its message.
REFUSED = {
    "leading-phase": (lambda: canonicalize(1.0, math.inf), "leading phase must be finite"),
    "term-field": (lambda: canonicalize(1.0, 0.0, [(0.5, math.nan, 0.0)]), "has a non-finite field"),
    "term-action": (lambda: canonicalize(1.0, 0.0, [(-0.5, 0.3, 0.0)]), "term action must be >= 0"),
    "amplitude-sum": (lambda: canonicalize(1.0, 0.0, [(0.5, 1e308, 0.0)] * 2), "beyond float range"),
    "chain-order": (lambda: DescentChain(SERIES, -1, 1e-6), "chain order must be an integer >= 0"),
    "margin": (lambda: build_chain(SERIES, 1.5), r"margin must lie in \(0, 1\)"),
    "window-finite": (lambda: descend(build_chain(SERIES), (0.0, math.inf)), "window bounds must be finite"),
    "window-negative": (lambda: descend(build_chain(SERIES), (-1.0, 5.0)), "nonnegative wavenumber"),
    "oversampling": (lambda: scan_roots(SERIES, (0.0, 10.0), oversampling=4), "integer >= 8"),
    # Values that are not numbers, windows that are not pairs, and chains
    # whose order or margin the descent cannot use.
    "leading-action-bool": (lambda: canonicalize(True, 0.0), "^series.s0: leading action must be > 0, got True$"),
    "leading-action-str": (lambda: canonicalize("2", 0.0), "^series.s0: leading action must be > 0, got '2'$"),
    "leading-action-none": (lambda: canonicalize(None, 0.0), "^series.s0: leading action must be > 0"),
    "leading-phase-none": (lambda: canonicalize(1.0, None), "^series.phi0: leading phase must be finite"),
    "terms-none": (lambda: canonicalize(1.0, 0.0, None), r"^series.terms: \(action, amplitude, phase\) triples"),
    "term-pair": (lambda: canonicalize(1.0, 0.0, [(0.5, 0.3)]), r"^series.terms\[0\]: \(action, amplitude, phase\)"),
    "term-str": (lambda: canonicalize(1.0, 0.0, [("a", 0.3, 0.0)]), r"^series.terms\[0\]: .* non-finite field"),
    "amplitude-bool": (lambda: canonicalize(1.0, 0.0, [(0.5, True, 0.0)]), r"^series.terms\[0\]: .* non-finite"),
    "window-str": (lambda: descend(build_chain(SERIES), ("0", "10")), "^window.kmin: .*; window.kmax: "),
    "window-bool": (lambda: descend(build_chain(SERIES), (True, 10)), "^window.kmin: window bounds must be finite"),
    "window-three": (lambda: descend(build_chain(SERIES), (0, 10, -5)), r"^window: a \(kmin, kmax\) pair required"),
    "window-none": (lambda: descend(build_chain(SERIES), None), r"^window: a \(kmin, kmax\) pair required"),
    "window-one": (lambda: descend(build_chain(SERIES), (0,)), r"^window: a \(kmin, kmax\) pair required"),
    "oversampling-float": (lambda: scan_roots(SERIES, (0.0, 10.0), 50.0), "^options.oversampling: .* got 50.0$"),
    "margin-str": (lambda: build_chain(SERIES, "0.5"), "^options.margin: margin must lie"),
    "chain-margin-nan": (lambda: DescentChain(SERIES, 1, math.nan), "^options.margin: margin must lie"),
    "chain-margin-large": (lambda: DescentChain(SERIES, 1, 5.0), "^options.margin: margin must lie"),
    "separators-margin": (lambda: base_separators(SERIES, 0.0, 10.0, 5.0), "^options.margin: margin must lie"),
    "chain-order-bool": (lambda: DescentChain(SERIES, True, 1e-6), "chain order must be an integer >= 0"),
    "chain-order-float": (lambda: DescentChain(SERIES, 1.5, 1e-6), "chain order must be an integer >= 0"),
    "command": (lambda: cli.run("frobnicate", None, io.StringIO()), "unknown command 'frobnicate'"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
def test_refused_input_raises_validation_error(call, message):
    # Callers that catch ValueError still catch every refusal.
    with pytest.raises(ValidationError, match=message) as caught:
        call()
    assert isinstance(caught.value, ValueError)


def test_traced_targets_resolve():
    # The traced benchmark pass replaces each of these module attributes;
    # a rename or removal would otherwise surface only there.
    missing = [
        f"{module_name}.{attr}"
        for module_name, names in load_spans().TARGETS.items()
        for attr in names
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert missing == []


def test_span_counters_read_real_results():
    # The traced pass counts work by reading fields of these results; a
    # renamed field would otherwise surface only there.
    graph = make_star3()
    expansion = expand_secular(graph)
    chain = build_chain(expansion.series)
    results = {
        "evaluate_array": evaluate_array(expansion.series, np.linspace(0.0, 10.0, 7)),
        "transfer_determinant": transfer_determinant(graph),
        "expand_secular": expansion,
        "build_chain": chain,
        "descend": descend(chain, (0.0, 10.0)),
    }
    counters = load_spans().COUNTERS
    assert counters.keys() == results.keys()
    counts = {name: counter(results[name]) for name, counter in counters.items()}
    assert counts["evaluate_array"] == 7
    assert counts["expand_secular"] == 3
    assert all(isinstance(c, int) and c > 0 for c in counts.values()), counts
