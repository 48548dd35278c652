"""Public surface: exported names and the names the traced benchmark wraps."""

import importlib
import importlib.util
from pathlib import Path

import qgspectra

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_exported_names_resolve():
    missing = [name for name in qgspectra.__all__ if not hasattr(qgspectra, name)]
    assert missing == []


def test_traced_targets_resolve():
    # The traced benchmark pass replaces each of these module attributes;
    # a rename or removal would otherwise surface only there.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module_name}.{attr}"
        for module_name, names in spans.TARGETS.items()
        for attr in names
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert missing == []
