"""In-memory span recording for the traced benchmark pass.

The library is not modified.  Instead, every public function a caller
reaches through a module attribute (``solver.descend`` as looked up by
``solve_graph``, ``oracle.evaluate_array`` as looked up by ``scan_roots``,
and so on) is replaced for the duration of the traced pass by a wrapper
that records one span: name, caller module, start, end, parent span, op id
and one work count.  Spans stay in a list until the run ends.

A span's layer is the module that defines the function; its caller is the
module whose attribute was wrapped, so series evaluation can be split by
who asked for it.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

# Module whose attribute the caller looks up -> public names wrapped there.
TARGETS: dict[str, tuple[str, ...]] = {
    "qgspectra.solver": (
        "solve_graph", "secular_series", "build_chain", "descend",
        "evaluate_array", "derivative_series",
    ),
    "qgspectra.graphs": ("expand_secular", "transfer_determinant", "bond_scattering_matrix"),
    "qgspectra.oracle": ("verify_spectrum", "scan_roots", "build_chain", "descend", "evaluate_array"),
    "qgspectra.cli": (
        "main", "load_config", "run", "secular_series", "build_chain", "descend",
        "verify_spectrum", "evaluate_array", "regularization_order",
    ),
}

# Work count stored with a span, taken from the call's result.  This module
# imports nothing heavy, so a traced CLI child can time its own import.
COUNTERS: dict[str, Callable[[Any], int]] = {
    "evaluate_array": lambda result: int(result.size),               # points evaluated
    "transfer_determinant": lambda result: len(result.coefficients),  # monomials kept
    "expand_secular": lambda result: len(result.series.terms),      # series terms
    "build_chain": lambda result: int(result.order),                # regularization order M
    "descend": lambda result: len(result),                          # level-0 roots
}

# Span fields, in order.
NAME, CALLER, START, END, PARENT, OP, COUNT = range(7)


class Tracer:
    """Collects spans; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    @property
    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def open(self, name: str, caller: str = "bench") -> int:
        idx = len(self.spans)
        self.spans.append([name, caller, time.perf_counter(), 0.0, self.current, self.op, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._stack.pop()

    def wrap(self, fn: Callable, caller: str) -> Callable:
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counter = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, caller)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                self.close(idx, count)

        return traced

    def install(self) -> None:
        """Wrap every target; each lookup site gets its own wrapper."""
        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            caller = module_name.rsplit(".", 1)[-1]
            for attr in names:
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self.wrap(original, caller))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def adopt(self, child_spans: list[list], parent: int, op: int) -> None:
        """Append spans recorded in a child process under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock, so
        child and parent timestamps share one time base.
        """
        base = len(self.spans)
        for span in child_spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + base
            span[OP] = op
            self.spans.append(span)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    durations never overlap and may simply be summed.
    """
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs
