"""Public surface: exported names and the names the traced benchmark wraps."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import qgspectra
from qgspectra import build_chain, descend, evaluate_array, expand_secular
from qgspectra.graphs import transfer_determinant

from conftest import make_star3

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
