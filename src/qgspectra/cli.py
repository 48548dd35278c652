"""Batch front end: JSON config in, CSV or JSON results out.

Commands
--------
solve   eigenvalue table ``n,k_n,E_n,enclosure`` as CSV
series  canonical secular series (s0, phi0, terms) as a reusable JSON config
verify  solver diff as JSON, against eigenphase counts for a graph and the
        dense scan for a series; exit 0 only on an empty diff
sample  grid values of every derivative level as CSV, for plotting

With ``--out PATH`` the output replaces PATH only once the command has
completed (exit 0 or 4); a failed command leaves PATH as it was.

Exit codes: 0 success, 2 invalid configuration or unsupported model (a
series whose action gap is too small to regularize, an unreadable config
and an unwritable ``--out`` path included),
3 degenerate spectrum, 4 verification mismatch, 141 output pipe closed
early (as for ``| head``; 128 + SIGPIPE, the code a shell reports for a
writer ended by that signal).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Any, TextIO

import numpy as np

from . import __version__
from .errors import (
    DegenerateSpectrum,
    NotRegular,
    ParseError,
    RealificationFailure,
    SizeCapExceeded,
    SpectralError,
    ValidationError,
)
from .graphs import BondSpec, QuantumGraph, VertexSpec, secular_series
from .oracle import DEFAULT_OVERSAMPLING, uniform_grid, verify_spectrum
from .series import (
    DEFAULT_MARGIN,
    SpectralSeries,
    canonicalize,
    evaluate_array,
    is_finite_real,
    regularity_sum,
)
from .solver import MAX_GRID_CELLS, build_chain, descend, regularization_order

_BC_MAP = {"dirichlet": "dirichlet", "kirchhoff": "kirchhoff", "delta": "scaling_delta"}
_SAMPLE_POINTS_PER_HALF_PERIOD = 20
EXIT_BROKEN_PIPE = 141
# Values formatted per write, which bounds the memory of the CSV writers.
_WRITE_BLOCK = 16_384


@dataclass(frozen=True)
class ConfigDoc:
    """Validated run configuration: one model, a window and options.

    ``given_oversampling`` is None unless the document or a flag sets
    ``options.oversampling``; ``sample`` then uses its own grid density.
    """

    graph: QuantumGraph | None
    series: SpectralSeries | None
    window: tuple[float, float]
    margin: float
    given_oversampling: int | None

    @property
    def oversampling(self) -> int:
        """Scan grid density of the oracle: the given value or the default."""
        return self.given_oversampling or DEFAULT_OVERSAMPLING

    def secular(self) -> SpectralSeries:
        if self.series is not None:
            return self.series
        return secular_series(self.graph)


def _check_keys(obj: dict, allowed: set[str], path: str, problems: list[str]) -> None:
    for key in obj:
        if key not in allowed:
            problems.append(f"{path}.{key}: unknown field")


def _field(doc: dict, key: str, kind: type, path: str, problems: list[str]) -> Any:
    """``doc[key]`` when it is a ``kind`` (dict or list), empty when absent
    or null; None, with a problem anchored at ``path``, when it is not."""
    value = doc.get(key)
    if value is None:
        return kind()
    if isinstance(value, kind):
        return value
    problems.append(f"{path}: must be {'an object' if kind is dict else 'a list'}, got {value!r}")
    return None


def _objects(doc: dict, key: str, allowed: set[str], problems: list[str]) -> list:
    """The list ``graph.<key>``, each entry checked to be an object with
    ``allowed`` keys only."""
    items = _field(doc, key, list, f"graph.{key}", problems) or []
    for i, item in enumerate(items):
        if isinstance(item, dict):
            _check_keys(item, allowed, f"graph.{key}[{i}]", problems)
        else:
            problems.append(f"graph.{key}[{i}]: must be an object")
    return items


def _parse_graph(doc: Any, problems: list[str]) -> QuantumGraph | None:
    """The graph of a config; ``QuantumGraph`` checks its field values."""
    if not isinstance(doc, dict):
        problems.append("graph: must be an object with 'vertices' and 'bonds'")
        return None
    _check_keys(doc, {"vertices", "bonds"}, "graph", problems)
    vertices = _objects(doc, "vertices", {"id", "bc", "lambda"}, problems)
    bonds = _objects(doc, "bonds", {"from", "to", "length", "potential_lambda"}, problems)
    for i, v in enumerate(vertices):
        if isinstance(v, dict) and not (isinstance(v.get("bc"), str) and v["bc"] in _BC_MAP):
            problems.append(f"graph.vertices[{i}].bc: must be one of {sorted(_BC_MAP)}, got {v.get('bc')!r}")
    if problems:
        return None
    try:
        return QuantumGraph(
            vertices=tuple(VertexSpec(v.get("id"), _BC_MAP[v["bc"]], v.get("lambda", 0.0)) for v in vertices),
            bonds=tuple(
                BondSpec((b.get("from"), b.get("to")), b.get("length"), b.get("potential_lambda", 0.0))
                for b in bonds
            ),
        )
    except ValidationError as exc:
        problems.extend(exc.violations)
        return None


def _parse_series(doc: Any, problems: list[str]) -> SpectralSeries | None:
    if not isinstance(doc, dict):
        problems.append("series: must be an object with 's0', 'phi0' and 'terms'")
        return None
    _check_keys(doc, {"s0", "phi0", "terms"}, "series", problems)
    if not is_finite_real(doc.get("s0")):
        problems.append("series.s0: finite number required")
    if not is_finite_real(doc.get("phi0")):
        problems.append("series.phi0: finite number required")
    terms = doc.get("terms", [])
    if not isinstance(terms, list):
        problems.append("series.terms: list of [action, amplitude, phase] triples required")
        terms = []
    triples: list[tuple[float, float, float]] = []
    for i, t in enumerate(terms):
        if not (isinstance(t, list) and len(t) == 3 and all(is_finite_real(x) for x in t)):
            problems.append(f"series.terms[{i}]: expected [action, amplitude, phase] numbers")
            continue
        triples.append((float(t[0]), float(t[1]), float(t[2])))
    if problems:
        return None
    try:
        return canonicalize(float(doc["s0"]), float(doc["phi0"]), triples)
    except (SpectralError, ValueError) as exc:
        problems.append(f"series: {exc}")
        return None


def load_config(text: str, overrides: dict[str, Any] | None = None) -> ConfigDoc:
    """Parse and validate a JSON configuration document.

    ``overrides`` (from command-line flags) are merged into the document
    before validation, so a window may come entirely from flags.  Every
    violated invariant is collected into a single ``ValidationError``;
    syntax errors raise ``ParseError`` with line and column anchors.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects nested too deeply to parse") from exc

    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ValidationError(["top level: must be a JSON object"])
    overrides = overrides or {}
    window = _field(doc, "window", dict, "window", problems)
    window_doc = dict(window or {})
    for key in ("kmin", "kmax"):
        if overrides.get(key) is not None:
            window_doc[key] = overrides[key]
    options = dict(_field(doc, "options", dict, "options", problems) or {})
    for key in ("margin", "oversampling"):
        if overrides.get(key) is not None:
            options[key] = overrides[key]

    # "report" is emitted by the `series` command and ignored on re-ingestion.
    _check_keys(doc, {"graph", "series", "window", "options", "report"}, "top level", problems)

    graph = None
    series = None
    if ("graph" in doc) == ("series" in doc):
        problems.append("top level: exactly one of 'graph' or 'series' must be present")
    elif "graph" in doc:
        graph = _parse_graph(doc["graph"], problems)
    else:
        series = _parse_series(doc["series"], problems)

    kmin = window_doc.get("kmin")
    kmax = window_doc.get("kmax")
    if window is not None:  # a window that is not an object is reported alone
        _check_keys(window_doc, {"kmin", "kmax"}, "window", problems)
        if not is_finite_real(kmin) or kmin < 0:
            problems.append(f"window.kmin: number >= 0 required, got {kmin!r}")
        if not is_finite_real(kmax) or (is_finite_real(kmin) and not kmax > kmin):
            problems.append(f"window.kmax: number > kmin required, got {kmax!r}")

    _check_keys(options, {"margin", "oversampling"}, "options", problems)
    margin = options.get("margin", DEFAULT_MARGIN)
    if not is_finite_real(margin) or not (0.0 < margin < 1.0):
        problems.append(f"options.margin: number in (0, 1) required, got {margin!r}")
    oversampling = options.get("oversampling", DEFAULT_OVERSAMPLING)
    if not (isinstance(oversampling, int) and is_finite_real(oversampling) and oversampling >= 8):
        problems.append(f"options.oversampling: integer >= 8 required, got {oversampling!r}")

    if problems:
        raise ValidationError(problems)
    return ConfigDoc(
        graph=graph,
        series=series,
        window=(float(kmin), float(kmax)),
        margin=float(margin),
        given_oversampling=int(oversampling) if "oversampling" in options else None,
    )


def _write_rows(out: TextIO, template: str, rows) -> None:
    """Write ``template % row`` for every row, at most ``_WRITE_BLOCK``
    values and at least one row per write, each block formatted by one
    ``%`` over its flattened values.  ``%.17g`` prints a float exactly as
    ``format(x, ".17g")`` does.
    """
    step = max(1, _WRITE_BLOCK // template.count("%"))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        if isinstance(block, np.ndarray):
            values = tuple(block.ravel().tolist())
        else:
            values = tuple(itertools.chain.from_iterable(block))
        out.write((template * len(block)) % values)


def _write_solve(config: ConfigDoc, out: TextIO) -> int:
    spectrum = descend(build_chain(config.secular(), config.margin), config.window)
    out.write("n,k_n,E_n,enclosure\n")
    rows = [(e.index, e.wavenumber, e.energy, e.enclosure) for e in spectrum]
    _write_rows(out, "%d,%.17g,%.17g,%.17g\n", rows)
    return 0


def _write_series(config: ConfigDoc, out: TextIO) -> int:
    series = config.secular()
    options = {"margin": config.margin}
    if config.given_oversampling is not None:
        options["oversampling"] = config.given_oversampling
    doc = {
        "series": {
            "s0": series.leading_action,
            "phi0": series.leading_phase,
            "terms": [[t.action, t.amplitude, t.phase] for t in series.terms],
        },
        "window": {"kmin": config.window[0], "kmax": config.window[1]},
        "options": options,
        "report": {
            "M": regularization_order(series, config.margin),
            "regularity_sum": regularity_sum(series),
        },
    }
    json.dump(doc, out, indent=2)
    out.write("\n")
    return 0


def _write_verify(config: ConfigDoc, out: TextIO) -> int:
    report = verify_spectrum(
        config.graph or config.series,
        config.window,
        margin=config.margin,
        oversampling=config.oversampling,
    )
    json.dump(asdict(report), out, indent=2)
    out.write("\n")
    return 0 if report.clean else 4


def _write_sample(config: ConfigDoc, out: TextIO) -> int:
    chain = build_chain(config.secular(), config.margin)
    points = config.given_oversampling or _SAMPLE_POINTS_PER_HALF_PERIOD
    ks = uniform_grid(chain.series, *config.window, points)
    # The table may hold as many bytes as a solve at the grid cap.
    if 8 * ks.size * (chain.order + 2) > 400 * MAX_GRID_CELLS:
        raise SizeCapExceeded(
            f"window: [{config.window[0]!r}, {config.window[1]!r}] takes a sample table of "
            f"{ks.size} x {chain.order + 2} values, above the {400 * MAX_GRID_CELLS:.3g}-byte cap"
        )
    table = np.empty((ks.size, chain.order + 2))
    table[:, 0] = ks
    for m in range(chain.order + 1):
        table[:, 1 + m] = evaluate_array(chain.series, ks, m)
    out.write("k," + ",".join(f"g{m}" for m in range(chain.order + 1)) + "\n")
    _write_rows(out, ",".join(["%.17g"] * table.shape[1]) + "\n", table)
    return 0


# Command name -> (help line, writer returning the exit code).
COMMANDS = {
    "solve": ("eigenvalue table as CSV", _write_solve),
    "series": ("canonical secular series as a reusable JSON config", _write_series),
    "verify": ("diff the solver against eigenphase counts (graph) or the dense scan (series)", _write_verify),
    "sample": ("derivative-level values on a uniform grid as CSV", _write_sample),
}


def run(command: str, config: ConfigDoc, out: TextIO | None = None) -> int:
    """Execute one command against a validated config; returns the exit code."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    _, writer = COMMANDS[command]
    return writer(config, out if out is not None else sys.stdout)


def _run_to_file(command: str, config: ConfigDoc, path: str) -> int:
    """``run`` into a new file beside ``path``, moved onto ``path`` once the
    command has completed (exit 0, or 4 for a verify diff).  A command that
    raises removes the new file, so ``path`` is never left empty, partial or
    changed by a failed command.  A path that exists but is not a regular
    file (a pipe, or a device such as /dev/stdout) is written directly, as
    it cannot be replaced.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            return run(command, config, handle)
    head, tail = os.path.split(path)
    partial = os.path.join(head, f".{tail}.{os.getpid()}.partial")
    try:
        with open(partial, "x", encoding="utf-8", newline="\n") as handle:
            code = run(command, config, handle)
        os.replace(partial, path)
        return code
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgspectra",
        description="Certified spectra of scaling quantum graphs from their secular cosine series.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON configuration file")
        p.add_argument("--kmin", type=float, default=None, help="override window.kmin")
        p.add_argument("--kmax", type=float, default=None, help="override window.kmax")
        p.add_argument("--margin", type=float, default=None, help="override options.margin")
        p.add_argument(
            "--oversampling",
            type=int,
            default=None,
            help="override options.oversampling (the scan density of a series verify; also sets the sample grid density)",
        )
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    overrides = {
        "kmin": args.kmin,
        "kmax": args.kmax,
        "margin": args.margin,
        "oversampling": args.oversampling,
    }
    try:
        config = load_config(text, overrides)
        if args.out is not None:
            return _run_to_file(args.command, config, args.out)
        code = run(args.command, config, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush
        # at interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: cannot write {args.out or 'standard output'}: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:  # an invalid config, or a window over a size cap
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except DegenerateSpectrum as exc:
        print(f"error: degenerate spectrum: {exc}", file=sys.stderr)
        return 3
    except (RealificationFailure, NotRegular) as exc:
        print(f"error: unsupported model: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
