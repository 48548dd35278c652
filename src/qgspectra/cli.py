"""Batch front end: JSON config in, CSV or JSON results out.

Commands
--------
solve   eigenvalue table ``n,k_n,E_n,enclosure`` as CSV
series  canonical secular series (s0, phi0, terms) as a reusable JSON config
verify  solver diff as JSON, against eigenphase counts for a graph and the
        dense scan for a series; exit 0 only on an empty diff
sample  grid values of every derivative level as CSV, for plotting

The CSV of ``solve`` and ``sample`` prints every float as C ``%.17g`` does:
at most 17 significant digits, trailing zeros dropped, text that reads back
as the same double.  ``solve`` prints ``n`` as an integer.

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
import functools
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
    RealificationFailure,
    SizeCapExceeded,
    SpectralError,
    ValidationError,
)
from .graphs import BondSpec, QuantumGraph, VertexSpec, secular_series
from .oracle import DEFAULT_OVERSAMPLING, _checked_oversampling, uniform_grid, verify_spectrum
from .series import DEFAULT_MARGIN, SpectralSeries, canonicalize, evaluate_array, regularity_sum
from .solver import (
    MAX_GRID_CELLS,
    _checked_margin,
    _checked_window,
    build_chain,
    descend,
    regularization_order,
)

_BC_MAP = {"dirichlet": "dirichlet", "kirchhoff": "kirchhoff", "delta": "scaling_delta"}
_SAMPLE_POINTS_PER_HALF_PERIOD = 20
EXIT_BROKEN_PIPE = 141
# Values formatted per write, which bounds the memory of the CSV writers.
_WRITE_BLOCK = 16_384


@dataclass(frozen=True)
class ConfigDoc:
    """Validated run configuration: one model (the config's graph or
    series), a window and options.

    ``oversampling`` is None unless the document or a flag sets
    ``options.oversampling``; ``verify`` then scans at the oracle's default
    density and ``sample`` uses its own grid density.
    """

    model: QuantumGraph | SpectralSeries
    window: tuple[float, float]
    margin: float
    oversampling: int | None

    def secular(self) -> SpectralSeries:
        if isinstance(self.model, SpectralSeries):
            return self.model
        return secular_series(self.model)


def _collect(problems: list[str], build, *args) -> Any:
    """``build(*args)``; None, with the violations of the ``ValidationError``
    it raises added to ``problems``, when the library refuses the values."""
    try:
        return build(*args)
    except ValidationError as exc:
        problems.extend(exc.violations)
        return None


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
    """The graph of a config; ``QuantumGraph`` checks its field values once
    the graph's own JSON shapes hold, whatever else the config violates."""
    if not isinstance(doc, dict):
        problems.append("graph: must be an object with 'vertices' and 'bonds'")
        return None
    known = len(problems)
    _check_keys(doc, {"vertices", "bonds"}, "graph", problems)
    vertices = _objects(doc, "vertices", {"id", "bc", "lambda"}, problems)
    bonds = _objects(doc, "bonds", {"from", "to", "length", "potential_lambda"}, problems)
    for i, v in enumerate(vertices):
        if isinstance(v, dict) and not (isinstance(v.get("bc"), str) and v["bc"] in _BC_MAP):
            problems.append(f"graph.vertices[{i}].bc: must be one of {sorted(_BC_MAP)}, got {v.get('bc')!r}")
    if len(problems) > known:
        return None
    vertices = tuple(VertexSpec(v.get("id"), _BC_MAP[v["bc"]], v.get("lambda", 0.0)) for v in vertices)
    bonds = tuple(
        BondSpec((b.get("from"), b.get("to")), b.get("length"), b.get("potential_lambda", 0.0)) for b in bonds
    )
    return _collect(problems, QuantumGraph, vertices, bonds)


def _parse_series(doc: Any, problems: list[str]) -> SpectralSeries | None:
    """The series of a config; ``canonicalize`` checks its values."""
    if not isinstance(doc, dict):
        problems.append("series: must be an object with 's0', 'phi0' and 'terms'")
        return None
    _check_keys(doc, {"s0", "phi0", "terms"}, "series", problems)
    terms = _field(doc, "terms", list, "series.terms", problems)
    return _collect(problems, canonicalize, doc.get("s0"), doc.get("phi0"), terms or ())


def load_config(text: str, overrides: dict[str, Any] | None = None) -> ConfigDoc:
    """Parse and validate a JSON configuration document.

    The ``kmin``, ``kmax``, ``margin`` and ``oversampling`` entries of
    ``overrides`` (the parsed command line; None for a flag not given) are
    merged into the document before validation, so a window may come
    entirely from flags; other entries are ignored.  This layer checks the
    JSON: object and list shapes, known keys, the ``bc`` names and that
    exactly one of graph and series is given.  The library checks every
    value (``QuantumGraph``, ``canonicalize``, the window, margin and
    oversampling rules of the solver and the oracle), and the violations
    of both layers are collected into a single ``ValidationError``, each
    anchored at its config path.  Text that is not JSON raises one with a
    line and column anchor.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValidationError("arrays or objects nested too deeply to parse") from exc

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

    model = None
    if ("graph" in doc) == ("series" in doc):
        problems.append("top level: exactly one of 'graph' or 'series' must be present")
    elif "graph" in doc:
        model = _parse_graph(doc["graph"], problems)
    else:
        model = _parse_series(doc["series"], problems)

    bounds = None
    if window is not None:  # a window that is not an object is reported alone
        _check_keys(window_doc, {"kmin", "kmax"}, "window", problems)
        bounds = _collect(problems, _checked_window, (window_doc.get("kmin"), window_doc.get("kmax")))

    _check_keys(options, {"margin", "oversampling"}, "options", problems)
    margin = _collect(problems, _checked_margin, options.get("margin", DEFAULT_MARGIN))
    oversampling = None
    if "oversampling" in options:
        oversampling = _collect(problems, _checked_oversampling, options["oversampling"])

    if problems:
        raise ValidationError(problems)
    return ConfigDoc(model=model, window=bounds, margin=margin, oversampling=oversampling)


# CSV text, field for field as ``format(x, ".17g")``.  A finite x with
# 1e-270 < |x| < 1e270 prints from D, the 17-digit integer nearest to
# |x|·10^(16−X) with X = ⌊log10|x|⌋, taken in double-double arithmetic; ±0
# prints from D = 0.  Python formats every value that product does not
# decide: one within 1e-6 of a rounding tie, one whose D has 16 or 18 digits
# because log10 missed a power of ten, inf, nan and the extremes.  Each
# field is laid out in six 8-byte words, NUL where it prints nothing, and the
# NULs are dropped at the end.  Word 0: sign, the "0.000" prefix of a small
# fixed-form value, and D's leading digit at byte 6; words 1–4: D's other 16
# digits at even bytes, each followed by a slot for the point, cut after the
# last digit printed; word 5: "e±XXX" and the separator at byte 7.  Digit i
# of D sits at byte 6 + 2i of the field.
def _words(text: bytes) -> np.ndarray:
    return np.frombuffer(text, np.uint64)


def _chunk_tables() -> tuple[np.ndarray, np.ndarray]:
    """For c = 0 … 9999: "dddd" as a word with a slot after each digit, and
    the number of trailing zeros of those four digits."""
    digits = np.zeros((10, 10, 10, 10, 8), np.uint8)
    zeros = np.zeros(10_000, np.int64)
    for i in range(4):
        digits[..., 2 * i] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - i))
        zeros[::10 ** (i + 1)] += 1
    return digits.view(np.uint64).ravel(), zeros


_PAIRS, _TRAILING_ZEROS = _chunk_tables()
_KEEP = _words(b"".join(b"\xff" * (2 * j) + b"\0" * (8 - 2 * j) for j in range(5)))  # first j digits
# _CUTS[j - 1][e] keeps the digits of word j that fall among the first e.
_CUTS = _KEEP[np.clip(np.arange(18) - 4 * np.arange(1, 5)[:, None] + 3, 0, 4)]
_LEADS = _PAIRS[:10] & _words(b"\xff".rjust(7, b"\0") + b"\0")
_MINUS, _COMMA, _NEWLINE = _words(b"-".ljust(8, b"\0") + b",".rjust(8, b"\0") + b"\n".rjust(8, b"\0"))
_PREFIXES = _words(b"".join((b"\0" + b"0." + b"0" * (z - 1) if z else b"").ljust(8, b"\0") for z in range(5)))


@functools.cache
def _pow10(p: int) -> tuple[float, float]:
    """10^p as hi + lo, each correctly rounded, from exact integers."""
    num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = 134217729.0 * x  # Dekker: 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _digits(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Round y = a·10^(16−x), taken in double-double: the nearest integer,
    ⌊y⌋, and whether y lies within 1e-6 of a tie."""
    base = int(x.min())
    k = x - base
    counts = np.bincount(k)
    h, l = np.zeros((2, counts.size))
    for i in np.flatnonzero(counts).tolist():
        h[i], l[i] = _pow10(16 - base - i)
    hh, hl = _split(h)
    h, l, hh, hl = h[k], l[k], hh[k], hl[k]
    p = a * h
    ah, al = _split(a)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * l  # y − p
    whole = np.floor(p)
    r += p - whole
    n = np.floor(r + 0.5)
    d = whole.astype(np.int64) + n.astype(np.int64)
    return d, d - (r < n), np.abs(r - n) > 0.5 - 1e-6


def _csv_text(table: np.ndarray) -> str:
    """The rows of a float table as CSV text, every field ``%.17g``."""
    v = table.ravel()
    n = v.size
    a = np.where(np.isfinite(v), np.abs(v), 0.0)
    fast = (a > 1e-270) & (a < 1e270)
    a[~fast] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    d, low, tie = _digits(a, x)
    zero = v == 0
    # Near a power of ten, log10 may be off by one, or D may round up to 10^17.
    # Python overwrites every field that is not exact, so its D is laid out as 0.
    exact = (fast & ~tie & (low >= 10**16) & (d < 10**17)) | zero
    d[~exact | zero] = 0
    x[zero] = 0
    top = d // 10**8
    bottom = d - top * 10**8
    chunks = (top // 10**8, top // 10**4 % 10**4, top % 10**4, bottom // 10**4, bottom % 10**4)
    c0, c1, c2, c3, c4 = chunks
    trailing = _TRAILING_ZEROS[c4] + (c4 == 0) * _TRAILING_ZEROS[c3]
    trailing += (bottom == 0) * (_TRAILING_ZEROS[c2] + (c2 == 0) * _TRAILING_ZEROS[c1])
    fixed = (x >= -4) & (x <= 16)
    prefix = np.where(fixed & (x < 0), -x, 0)  # zeros of "0.000"
    point = np.where(fixed & (x >= 0), x + 1, 1)  # digits before the point
    end = np.maximum(17 - trailing, point)  # digits printed
    text = bytearray(48 * n)
    words = np.frombuffer(text, np.uint64).reshape(n, 6)
    words[:, 0] = _LEADS[c0] | np.signbit(v).astype(np.uint64) * _MINUS | _PREFIXES[prefix]
    for j in range(1, 5):
        words[:, j] = _PAIRS[chunks[j]] & _CUTS[j - 1][end]
    words[:, 5] = _COMMA
    words[table.shape[1] - 1::table.shape[1], 5] = _NEWLINE
    field = words.view(np.uint8)
    dot = np.flatnonzero((point < end) & (prefix == 0))
    field.ravel()[48 * dot + 5 + 2 * point[dot]] = ord(".")
    sci = np.flatnonzero(~fixed)
    field[sci, 40] = ord("e")
    field[sci, 41] = np.where(x[sci] < 0, ord("-"), ord("+"))
    field[sci, 42:45] = _PAIRS[np.abs(x[sci])].view(np.uint8).reshape(-1, 8)[:, 2:7:2]
    field[sci[np.abs(x[sci]) < 100], 42] = 0
    for i in np.flatnonzero(~exact).tolist():
        python = b"%.17g" % v[i]
        field[i, :47] = 0
        field[i, :len(python)] = np.frombuffer(python, np.uint8)
    return text.translate(None, b"\0").decode("ascii")


def _write_rows(out: TextIO, table: np.ndarray) -> None:
    """Write a float table as CSV, at most ``_WRITE_BLOCK`` values and at
    least one row per write.

    Each write is formatted in four pieces.  ``_csv_text`` peaks at about
    220 bytes a value; for a whole block that outgrew what the C allocator
    keeps between frees, so every block faulted its arrays into fresh pages
    (19,000 page faults, a quarter of the writer's time, on a 128,455 x 3
    sample table).  Pieces of a quarter block reuse their pages.
    """
    step = max(1, _WRITE_BLOCK // table.shape[1])
    piece = max(1, step // 4)
    for start in range(0, len(table), step):
        block = table[start:start + step]
        out.write("".join(_csv_text(block[i:i + piece]) for i in range(0, len(block), piece)))


def _write_solve(config: ConfigDoc, out: TextIO) -> int:
    spectrum = descend(build_chain(config.secular(), config.margin), config.window)
    out.write("n,k_n,E_n,enclosure\n")
    # Indices are below 2^53, so %.17g prints them as %d would.
    _write_rows(out, np.array(spectrum.entries, dtype=float).reshape(-1, 4))
    return 0


def _write_series(config: ConfigDoc, out: TextIO) -> int:
    series = config.secular()
    options = {"margin": config.margin}
    if config.oversampling is not None:
        options["oversampling"] = config.oversampling
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
        config.model,
        config.window,
        margin=config.margin,
        oversampling=config.oversampling or DEFAULT_OVERSAMPLING,
    )
    json.dump(asdict(report), out, indent=2)
    out.write("\n")
    return 0 if report.clean else 4


def _write_sample(config: ConfigDoc, out: TextIO) -> int:
    chain = build_chain(config.secular(), config.margin)
    points = config.oversampling or _SAMPLE_POINTS_PER_HALF_PERIOD
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
    _write_rows(out, table)
    return 0


# Command name -> (help line, writer returning the exit code).
COMMANDS = {
    "solve": ("eigenvalue table as CSV", _write_solve),
    "series": ("canonical secular series as a reusable JSON config", _write_series),
    "verify": ("diff the solver against eigenphase counts (graph) or the dense scan (series)", _write_verify),
    "sample": ("derivative-level values on a uniform grid as CSV", _write_sample),
}


def run(command: str, config: ConfigDoc, out: TextIO) -> int:
    """Execute one command against a validated config, writing to ``out``;
    returns the exit code."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    _, writer = COMMANDS[command]
    return writer(config, out)


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
    parser.add_argument(
        "command", choices=COMMANDS, help="; ".join(f"{name}: {text}" for name, (text, _) in COMMANDS.items())
    )
    parser.add_argument("config", help="path to a JSON configuration file")
    parser.add_argument("--kmin", type=float, help="override window.kmin")
    parser.add_argument("--kmax", type=float, help="override window.kmax")
    parser.add_argument("--margin", type=float, help="override options.margin")
    parser.add_argument(
        "--oversampling",
        type=int,
        help="override options.oversampling (the scan density of a series verify; also sets the sample grid density)",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = load_config(text, vars(args))
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
    except SpectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
