"""Config loading, command dispatch, output formats and exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qgspectra import (
    QuantumGraph,
    SpectralError,
    ValidationError,
    build_chain,
    descend,
    evaluate_array,
)
from qgspectra.cli import _WRITE_BLOCK, _write_rows, load_config, main, run
from qgspectra.series import SpectralSeries

from conftest import STAR_LENGTHS

BOND_DD = {
    "graph": {
        "vertices": [
            {"id": 0, "bc": "dirichlet"},
            {"id": 1, "bc": "dirichlet"},
        ],
        "bonds": [{"from": 0, "to": 1, "length": 1.0}],
    },
    "window": {"kmin": 0.0, "kmax": 10.0},
}

# The test three-star (conftest ``make_star3``).
STAR3 = {
    "graph": {
        "vertices": [{"id": 0, "bc": "kirchhoff"}]
        + [{"id": i, "bc": "dirichlet"} for i in (1, 2, 3)],
        "bonds": [{"from": 0, "to": i, "length": L} for i, L in ((1, 1.0), (2, 0.71), (3, 0.43))],
    },
    "window": {"kmin": 0.0, "kmax": 30.0},
}

# The README three-star: a delta vertex and a bond potential, as the CLI
# benchmark's configs have.
DELTA_STAR = {
    "graph": {
        "vertices": [
            {"id": 0, "bc": "kirchhoff"},
            {"id": 1, "bc": "dirichlet"},
            {"id": 2, "bc": "delta", "lambda": 1.3},
            {"id": 3, "bc": "dirichlet"},
        ],
        "bonds": [
            {"from": 0, "to": 1, "length": 1.0},
            {"from": 0, "to": 2, "length": 0.71, "potential_lambda": 0.25},
            {"from": 0, "to": 3, "length": 0.43},
        ],
    },
    "window": {"kmin": 0.0, "kmax": 2500.0},
}

IRREGULAR_SERIES = {
    "series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.6, 1.2, 0.0]]},
    "window": {"kmin": 0.0, "kmax": 10.0},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_minimal_graph_document(self):
        config = load_config(json.dumps(BOND_DD))
        assert isinstance(config.model, QuantumGraph)
        assert len(config.model.bonds) == 1
        assert config.window == (0.0, 10.0)
        assert config.margin == 1e-6
        assert config.oversampling is None

    def test_series_document(self):
        config = load_config(json.dumps(IRREGULAR_SERIES))
        assert isinstance(config.model, SpectralSeries)
        assert config.model.leading_action == 1.0
        assert len(config.model.terms) == 1

    def test_tunneling_potential_rejected(self):
        doc = json.loads(json.dumps(BOND_DD))
        doc["graph"]["bonds"][0]["potential_lambda"] = 1.2
        with pytest.raises(ValidationError, match="potential_fraction must be < 1"):
            load_config(json.dumps(doc))

    def test_graph_and_series_exclusive(self):
        doc = dict(BOND_DD)
        doc["series"] = IRREGULAR_SERIES["series"]
        with pytest.raises(ValidationError, match="exactly one"):
            load_config(json.dumps(doc))

    def test_neither_graph_nor_series(self):
        with pytest.raises(ValidationError, match="exactly one"):
            load_config(json.dumps({"window": {"kmin": 0.0, "kmax": 1.0}}))

    def test_parse_error_carries_position(self):
        with pytest.raises(ValidationError, match=r"line \d+, column \d+"):
            load_config("{ not json }")

    def test_all_violations_reported(self):
        doc = {
            "graph": {
                "vertices": [{"id": 0, "bc": "dirichlet"}, {"id": 1, "bc": "dirichlet"}],
                "bonds": [{"from": 0, "to": 1, "length": -1.0, "potential_lambda": 3.0}],
            },
            "window": {"kmin": -2.0, "kmax": -3.0},
        }
        with pytest.raises(ValidationError) as err:
            load_config(json.dumps(doc))
        text = "\n".join(err.value.violations)
        assert "length" in text
        assert "potential_fraction" in text
        assert "kmin" in text

    def test_window_from_overrides(self):
        doc = {"series": IRREGULAR_SERIES["series"]}
        config = load_config(json.dumps(doc), {"kmin": 0.0, "kmax": 5.0})
        assert config.window == (0.0, 5.0)

    def test_override_beats_document(self):
        config = load_config(json.dumps(BOND_DD), {"kmax": 7.0})
        assert config.window == (0.0, 7.0)

    def test_unknown_keys_rejected(self):
        doc = json.loads(json.dumps(BOND_DD))
        doc["grpah"] = {}
        with pytest.raises(ValidationError, match="unknown field"):
            load_config(json.dumps(doc))

    def test_bad_oversampling(self):
        doc = json.loads(json.dumps(BOND_DD))
        doc["options"] = {"oversampling": 4}
        with pytest.raises(ValidationError, match="oversampling"):
            load_config(json.dumps(doc))

    def test_report_key_ignored(self):
        doc = json.loads(json.dumps(IRREGULAR_SERIES))
        doc["report"] = {"M": 1, "regularity_sum": 1.2}
        config = load_config(json.dumps(doc))
        assert isinstance(config.model, SpectralSeries)


class TestCommands:
    def test_solve_csv(self):
        config = load_config(json.dumps(BOND_DD))
        out = io.StringIO()
        code = run("solve", config, out)
        assert code == 0
        lines = out.getvalue().splitlines()
        assert lines[0] == "n,k_n,E_n,enclosure"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 3]
        ks = [float(r[1]) for r in rows]
        assert np.allclose(ks, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-10)
        assert ks == sorted(ks)
        for r in rows:
            assert float(r[2]) == float(r[1]) ** 2

    def test_series_reports_order_and_sum(self):
        config = load_config(json.dumps(IRREGULAR_SERIES))
        out = io.StringIO()
        assert run("series", config, out) == 0
        doc = json.loads(out.getvalue())
        assert doc["report"]["M"] == 1
        assert doc["report"]["regularity_sum"] == pytest.approx(1.2, abs=1e-15)
        assert doc["series"]["s0"] == 1.0

    def test_round_trip_series_output_is_a_config(self):
        config = load_config(json.dumps(BOND_DD))
        first = io.StringIO()
        run("solve", config, first)

        emitted = io.StringIO()
        run("series", config, emitted)
        config2 = load_config(emitted.getvalue())
        second = io.StringIO()
        run("solve", config2, second)
        assert first.getvalue() == second.getvalue()

    def test_round_trip_series_output_of_a_six_bond_star(self):
        # The graph's series carries bond rows and takes the bond kernel;
        # the config `series` prints holds no rows, so the series read back
        # takes the per-term kernel.  The roots agree to rounding.
        arms = STAR_LENGTHS[:6]
        doc = {
            "graph": {
                "vertices": [{"id": 0, "bc": "kirchhoff"}]
                + [{"id": i, "bc": "dirichlet"} for i in range(1, len(arms) + 1)],
                "bonds": [{"from": 0, "to": i, "length": L} for i, L in enumerate(arms, 1)],
            },
            "window": {"kmin": 0.0, "kmax": 60.0},
        }
        config = load_config(json.dumps(doc))
        first = io.StringIO()
        run("solve", config, first)

        emitted = io.StringIO()
        run("series", config, emitted)
        config2 = load_config(emitted.getvalue())
        assert config2.model.bonds is None
        second = io.StringIO()
        run("solve", config2, second)
        ks = [np.array([float(line.split(",")[1]) for line in out.getvalue().splitlines()[1:]])
              for out in (first, second)]
        assert len(ks[0]) == len(ks[1]) > 80
        assert np.all(np.abs(ks[0] - ks[1]) <= 1e-9 * ks[0])

    def test_verify_clean(self):
        config = load_config(json.dumps(IRREGULAR_SERIES))
        out = io.StringIO()
        assert run("verify", config, out) == 0
        doc = json.loads(out.getvalue())
        assert doc["missing"] == [] and doc["spurious"] == []
        assert doc["matched"] > 0
        assert doc["max_deviation"] <= 1e-8

    def test_verify_mismatch_exit_code(self, monkeypatch):
        import qgspectra.cli as cli_module
        from qgspectra.oracle import VerificationReport

        seen = {}

        def fake_verify(series, window, margin, oversampling):
            seen["oversampling"] = oversampling
            return VerificationReport(2, (1.5,), (), 3e-9)

        monkeypatch.setattr(cli_module, "verify_spectrum", fake_verify)
        config = load_config(json.dumps(IRREGULAR_SERIES))
        out = io.StringIO()
        assert run("verify", config, out) == 4
        # No oversampling given: the scan runs at the oracle's default.
        assert seen["oversampling"] == 50

    @pytest.mark.parametrize("kmin, kmax, matched", [
        (1e9, 1e9 + 20.0, 13),
        (1e12, 1e12 + 50.0, 34),
    ], ids=["1e9", "1e12"])
    def test_graph_verify_counts_at_high_k(self, tmp_path, capsys, kmin, kmax, matched):
        # A graph is checked by its eigenphase count; the series scan exits
        # 4 on both windows.
        path = write_config(tmp_path, STAR3)
        assert main(["verify", path, "--kmin", repr(kmin), "--kmax", repr(kmax)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["matched"], doc["missing"], doc["spurious"]) == (matched, [], [])

    def test_graph_verify_planted_missing_root(self, monkeypatch):
        import qgspectra.oracle as oracle_module
        from qgspectra.solver import Spectrum

        def dropping(chain, window):
            return Spectrum(entries=descend(chain, window).entries[1:])

        monkeypatch.setattr(oracle_module, "descend", dropping)
        out = io.StringIO()
        assert run("verify", load_config(json.dumps(STAR3)), out) == 4
        doc = json.loads(out.getvalue())
        assert len(doc["missing"]) == 1 and doc["spurious"] == []

    def test_series_verify_planted_missing_root(self, monkeypatch):
        import qgspectra.oracle as oracle_module
        from qgspectra.solver import Spectrum

        def dropping(chain, window):
            return Spectrum(entries=descend(chain, window).entries[1:])

        monkeypatch.setattr(oracle_module, "descend", dropping)
        out = io.StringIO()
        assert run("verify", load_config(json.dumps(IRREGULAR_SERIES)), out) == 4
        doc = json.loads(out.getvalue())
        assert len(doc["missing"]) == 1 and doc["spurious"] == []

    def test_sample_grid(self):
        config = load_config(json.dumps(IRREGULAR_SERIES))
        out = io.StringIO()
        assert run("sample", config, out) == 0
        lines = out.getvalue().splitlines()
        assert lines[0] == "k,g0,g1"
        assert len(lines) - 1 == math.ceil(10.0 / (math.pi / 20)) + 1
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0 - 1.2, abs=1e-15)

    @pytest.mark.parametrize(
        "options,overrides,rows",
        [({}, {}, 21), ({}, {"oversampling": 50}, 51), ({"oversampling": 50}, {}, 51)],
        ids=["default", "flag", "document"],
    )
    def test_sample_density_given_or_default(self, options, overrides, rows):
        # 20 points per half-period unless an oversampling is given, even
        # one equal to the oracle default; the config printed by `series`
        # keeps that choice.
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": []},
            "window": {"kmin": 0.0, "kmax": math.pi},
            "options": options,
        }
        config = load_config(json.dumps(doc), overrides)
        sample = io.StringIO()
        run("sample", config, sample)
        assert len(sample.getvalue().splitlines()) - 1 == rows

        emitted = io.StringIO()
        run("series", config, emitted)
        resampled = io.StringIO()
        run("sample", load_config(emitted.getvalue()), resampled)
        assert resampled.getvalue() == sample.getvalue()

    def test_unknown_command(self):
        config = load_config(json.dumps(BOND_DD))
        with pytest.raises(ValueError):
            run("frobnicate", config, io.StringIO())


class TestMain:
    def test_solve_to_file(self, tmp_path):
        path = write_config(tmp_path, BOND_DD)
        out_path = tmp_path / "result.csv"
        assert main(["solve", path, "--out", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0] == "n,k_n,E_n,enclosure"

    @pytest.mark.parametrize("existing", [None, b"n,k_n,E_n,enclosure\n1,3,9,0\n"],
                             ids=["absent", "present"])
    def test_failed_command_leaves_out_as_it_was(self, tmp_path, capsys, existing):
        # cos k - cos(k/2 + pi/2) has a double root at pi: exit 3.
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.5, 1.0, math.pi / 2]]},
            "window": {"kmin": 0.0, "kmax": 10.0},
        }
        path = write_config(tmp_path, doc)
        out_path = tmp_path / "result.csv"
        if existing is not None:
            out_path.write_bytes(existing)
        assert main(["solve", path, "--out", str(out_path)]) == 3
        assert "degenerate" in capsys.readouterr().err
        assert (out_path.read_bytes() if out_path.exists() else None) == existing
        left = {"config.json"} | ({"result.csv"} if existing is not None else set())
        assert {p.name for p in tmp_path.iterdir()} == left

    def test_verify_mismatch_writes_out(self, tmp_path, monkeypatch):
        # Exit 4 is a completed command: its diff replaces the old file.
        import qgspectra.cli as cli_module
        from qgspectra.oracle import VerificationReport

        def fake_verify(series, window, margin, oversampling):
            return VerificationReport(2, (1.5,), (), 3e-9)

        monkeypatch.setattr(cli_module, "verify_spectrum", fake_verify)
        path = write_config(tmp_path, IRREGULAR_SERIES)
        out_path = tmp_path / "diff.json"
        out_path.write_text("old", encoding="utf-8")
        assert main(["verify", path, "--out", str(out_path)]) == 4
        assert json.loads(out_path.read_text(encoding="utf-8"))["missing"] == [1.5]
        assert {p.name for p in tmp_path.iterdir()} == {"config.json", "diff.json"}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_to_a_pipe_is_written_through(self, tmp_path):
        # A pipe cannot be replaced by a finished file; it is written directly.
        path = write_config(tmp_path, BOND_DD)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["solve", path, "--out", str(fifo)]) == 0
            data = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert data.decode().splitlines()[0] == "n,k_n,E_n,enclosure"
        assert fifo.is_fifo()

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent.json")]) == 2

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}")

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, BOND_DD)
        out_path = tmp_path / "missing" / "result.csv"
        assert main(["solve", path, "--out", str(out_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_path}")
        assert not out_path.parent.exists()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BOND_DD))
        doc["graph"]["bonds"][0]["potential_lambda"] = 1.2
        path = write_config(tmp_path, doc)
        assert main(["solve", path]) == 2
        assert "potential_fraction must be < 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "part,key,value,path",
        [
            (None, "window", [0, 10], "window"),
            (None, "window", "0..10", "window"),
            (None, "options", "x", "options"),
            (None, "options", [["margin", 0.5]], "options"),
            ("graph", "vertices", {"id": 0}, "graph.vertices"),
            ("graph", "vertices", "x", "graph.vertices"),
            ("graph", "bonds", {"from": 0, "to": 1, "length": 1.0}, "graph.bonds"),
            ("graph", "bonds", 7, "graph.bonds"),
        ],
    )
    def test_malformed_shape_exit_2(self, tmp_path, capsys, part, key, value, path):
        doc = json.loads(json.dumps(BOND_DD))
        (doc[part] if part else doc)[key] = value
        assert main(["solve", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        kind = "a list" if part else "an object"
        assert err == f"error: {path}: must be {kind}, got {value!r}\n"

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        assert main(["solve", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_degenerate_spectrum_exit_3(self, tmp_path, capsys):
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.5, 1.0, math.pi / 2]]},
            "window": {"kmin": 0.0, "kmax": 10.0},
        }
        path = write_config(tmp_path, doc)
        assert main(["solve", path]) == 3
        assert "degenerate" in capsys.readouterr().err.lower()

    def test_unregularizable_series_exit_2(self, tmp_path, capsys):
        # Amplitude 2 at action ratio 1 - 1e-13 would need ~7e12 levels.
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.9999999999999, 2.0, 0.0]]},
            "window": {"kmin": 0.0, "kmax": 10.0},
        }
        path = write_config(tmp_path, doc)
        assert main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "derivative levels" in err

    @pytest.mark.parametrize(
        "command, s0, window",
        [
            ("solve", 1.0, (1e300, 1.0000001e300)),
            ("solve", 1e300, (0.0, 1.0)),
            ("sample", 1.0, (0.0, 1e12)),
        ],
        ids=["solve-wide", "solve-fast", "sample-wide"],
    )
    def test_window_beyond_the_grid_cap_exit_2(self, tmp_path, capsys, command, s0, window):
        # Grids of 3e292, 3e299 and 6e12 cells: refused before any is built.
        doc = {
            "series": {"s0": s0, "phi0": 0.0, "terms": [[0.5, 0.3, 0.0]]},
            "window": {"kmin": window[0], "kmax": window[1]},
        }
        assert main([command, write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: window: ") and "above the cap" in err

    @pytest.mark.parametrize(
        "window", [(1e20, 1.0000000000001e20), (3e19, 3e19 + 4096)], ids=["1e20", "3e19"]
    )
    def test_window_beyond_float_resolution_exit_2(self, tmp_path, capsys, window):
        # Float spacings of 16384 and 4096 against a leading cell of pi: the
        # separator grid cannot be placed, so the window is refused.
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.5, 0.3, 0.0]]},
            "window": {"kmin": window[0], "kmax": window[1]},
        }
        assert main(["solve", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: window: ")
        assert "beyond float resolution" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "bounds, quoted, reason",
        [
            (("0", "1e8"), "[0.0, 100000000.0]", "spans 3.18e+07 separator cells"),
            (("1e15", "1.00000000001e15"), "[1000000000000000.0, 1000000000010000.0]",
             "beyond float resolution"),
        ],
        ids=["grid_cap", "float_resolution"],
    )
    def test_solve_refusals_quote_the_window_as_given(self, tmp_path, capsys, bounds, quoted, reason):
        # The descent pads the window by M + 1 leading cells; its refusals
        # quote the window the command was given, not the padded one.
        doc = {"series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.5, 0.3, 0.0]]},
               "window": {"kmin": 0.0, "kmax": 10.0}}
        argv = ["solve", write_config(tmp_path, doc), "--kmin", bounds[0], "--kmax", bounds[1]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: window: {quoted} ") and reason in err

    def test_verify_scan_grid_cap_before_the_descent(self, tmp_path, capsys, monkeypatch):
        # 10**8 scan points per half-period of (0, 1e4]: 3.2e11 cells.  A
        # series config is refused quoting the window as given, as sample
        # does, and before any descent; a graph config builds no grid.
        import qgspectra.oracle as oracle_module

        window = {"kmin": 0.0, "kmax": 1e4}
        graph = write_config(tmp_path, dict(BOND_DD, window=window), "graph.json")
        assert main(["verify", graph, "--oversampling", str(10**8)]) == 0
        assert json.loads(capsys.readouterr().out)["matched"] == 3183

        def refused(chain, window):
            raise AssertionError("verify descended before checking its scan grid")

        monkeypatch.setattr(oracle_module, "descend", refused)
        doc = dict(IRREGULAR_SERIES, window=window)
        assert main(["verify", write_config(tmp_path, doc), "--oversampling", str(10**8)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window: [0.0, 10000.0] takes a grid of ") and "above the cap" in err

    def test_sample_grid_cap(self, tmp_path, capsys, monkeypatch):
        import qgspectra.oracle as oracle_module

        # 20 rows per half-period: 10 half-periods give 200 rows.
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": []},
            "window": {"kmin": 0.0, "kmax": 10 * math.pi},
        }
        path = write_config(tmp_path, doc)
        monkeypatch.setattr(oracle_module, "MAX_GRID_CELLS", 201)
        assert main(["sample", path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 201
        monkeypatch.setattr(oracle_module, "MAX_GRID_CELLS", 200)
        assert main(["sample", path]) == 2
        assert "above the cap of 200" in capsys.readouterr().err

    DEEP_SERIES = {"s0": 1.0, "phi0": 0.0, "terms": [[0.99999, 2.0, 0.0]]}  # M = 69,315

    def test_sample_table_cap(self, tmp_path, capsys, monkeypatch):
        # 63,663 rows of 69,317 values are 35 GB: refused before the table
        # is evaluated, quoting the window as given.
        import qgspectra.cli as cli_module

        def refused(*args):
            raise AssertionError("sample evaluated a table over the cap")

        doc = {"series": self.DEEP_SERIES, "window": {"kmin": 0.0, "kmax": 1e4}}
        path = write_config(tmp_path, doc)
        monkeypatch.setattr(cli_module, "evaluate_array", refused)
        assert main(["sample", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window: [0.0, 10000.0] takes a sample table of 63663 x 69317 values")
        assert err.count("\n") == 1 and "Traceback" not in err
        monkeypatch.undo()
        # 8 rows of 69,317 values are below the cap.
        doc["window"]["kmax"] = 1.0
        assert main(["sample", write_config(tmp_path, doc)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 8
        assert {line.count(",") + 1 for line in lines} == {69_317}

    def test_other_library_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        # A bare SpectralError, which no other clause of main names, must
        # still map to exit 2.
        import qgspectra.cli as cli_module

        def empty(chain, window):
            raise SpectralError("window [5.0, 5.0] contains no interval")

        monkeypatch.setattr(cli_module, "descend", empty)
        path = write_config(tmp_path, BOND_DD)
        assert main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "contains no interval" in err
        assert "Traceback" not in err

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # About 400 kB of CSV, far more than a pipe buffers.
        doc = {
            "series": {"s0": 1.0, "phi0": 0.0, "terms": []},
            "window": {"kmin": 0.0, "kmax": 2e4},
        }
        path = write_config(tmp_path, doc)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qgspectra", "solve", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"n,k_n,E_n,enclosure\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert err == ""  # in particular, no traceback

    def test_window_flags(self, tmp_path, capsys):
        doc = {"series": {"s0": 1.0, "phi0": 0.0, "terms": []}}
        path = write_config(tmp_path, doc)
        assert main(["solve", path, "--kmin", "0", "--kmax", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) - 1 == 2  # pi/2 and 3pi/2

    def test_full_precision_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, BOND_DD)
        assert main(["solve", path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            _, k, e, _ = row.split(",")
            assert float(e) == float(k) ** 2  # 17 digits survive the trip


def with_field(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` (keys and indices) set."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


ALL_COMMANDS = ("solve", "series", "sample", "verify")
SERIES_03 = {
    "series": {"s0": 1.0, "phi0": 0.0, "terms": [[0.5, 0.3, 0.0]]},
    "window": {"kmin": 0.0, "kmax": 10.0},
    "options": {},
}
# Every numeric field that a 401-digit integer can fill: config, path, anchor.
HUGE_INT_FIELDS = [
    (SERIES_03, ["series", "s0"], "series.s0"),
    (SERIES_03, ["series", "phi0"], "series.phi0"),
    (SERIES_03, ["series", "terms", 0, 1], "series.terms[0]"),
    (SERIES_03, ["window", "kmin"], "window.kmin"),
    (SERIES_03, ["window", "kmax"], "window.kmax"),
    (SERIES_03, ["options", "margin"], "options.margin"),
    (SERIES_03, ["options", "oversampling"], "options.oversampling"),
    (BOND_DD, ["graph", "bonds", 0, "length"], "graph.bonds[0].length"),
    (BOND_DD, ["graph", "bonds", 0, "potential_lambda"], "graph.bonds[0].potential_lambda"),
    (BOND_DD, ["graph", "vertices", 0, "lambda"], "graph.vertices[0].lambda"),
]


def tiny_window_bonds(*bonds):
    """``BOND_DD`` on (0, 1e-300] with bonds (length, potential fraction)
    between its two vertices."""
    doc = with_field(BOND_DD, ["window", "kmax"], 1e-300)
    return with_field(doc, ["graph", "bonds"], [
        {"from": 0, "to": 1, "length": length, "potential_lambda": fraction} for length, fraction in bonds
    ])


# Name, config (a document or raw text), the commands it reaches, and the
# start of each error line it must print, one line each.
BAD_INPUTS = [
    ("oversampling-1e12", with_field(SERIES_03, ["options"], {"oversampling": 10**12}),
     ("sample", "verify"), "error: window: "),
    ("s0-1e308-on-1e-300", {"series": {"s0": 1e308, "phi0": 0.0, "terms": []},
                            "window": {"kmin": 0.0, "kmax": 1e-300}},
     ("sample",), "error: window: "),
    ("amplitudes-overflow", with_field(SERIES_03, ["series", "terms"], [[0.5, 1e308, 0.0], [0.6, 1e308, 0.0]]),
     ALL_COMMANDS, "error: series: "),
    ("bond-1e-300", with_field(BOND_DD, ["graph", "bonds", 0, "length"], 1e-300),
     ALL_COMMANDS, "error: unsupported model: "),
    ("nested-1e5", "[" * 100_000 + "]" * 100_000, ALL_COMMANDS, "error: arrays or objects nested"),
    ("bc-list", with_field(BOND_DD, ["graph", "vertices", 0, "bc"], []),
     ALL_COMMANDS, "error: graph.vertices[0].bc: "),
    ("vertex-id-list", with_field(BOND_DD, ["graph", "vertices", 0, "id"], [0]),
     ALL_COMMANDS, ("error: graph.vertices[0].id: ", "error: graph.bonds[0]: endpoint 0 is not a vertex id")),
    ("length-str", with_field(BOND_DD, ["graph", "bonds", 0, "length"], "1.0"),
     ALL_COMMANDS, "error: graph.bonds[0].length: "),
    ("top-level-list", "[]", ALL_COMMANDS, "error: top level: must be a JSON object"),
    ("graph-list", with_field(BOND_DD, ["graph"], []), ALL_COMMANDS, "error: graph: must be an object"),
    ("vertex-int", with_field(BOND_DD, ["graph", "vertices", 0], 7),
     ALL_COMMANDS, "error: graph.vertices[0]: must be an object"),
    ("series-list", with_field(SERIES_03, ["series"], []), ALL_COMMANDS, "error: series: must be an object"),
    ("terms-object", with_field(SERIES_03, ["series", "terms"], {}),
     ALL_COMMANDS, "error: series.terms: list of [action, amplitude, phase] triples required"),
    ("empty-graph", with_field(with_field(BOND_DD, ["graph", "vertices"], []), ["graph", "bonds"], []),
     ALL_COMMANDS, ("error: graph.vertices: at least one vertex", "error: graph.bonds: at least one bond")),
    # Bond actions beyond float range.  The actions' sum overflowed math.fsum;
    # only twice the sum, the leading monomial's action, overflowed, and the
    # series kept no terms (verify then counted NaN); one action overflowed.
    ("actions-sum-overflow", tiny_window_bonds((1e308, 0.0), (1.5e308, 0.0)),
     ALL_COMMANDS, "error: graph.bonds: leading action 2*sum(bond actions) must be finite, got inf"),
    ("leading-action-overflow", tiny_window_bonds((9e307, 0.0)),
     ALL_COMMANDS, "error: graph.bonds: leading action 2*sum(bond actions) must be finite, got inf"),
    ("bond-action-overflow", tiny_window_bonds((1e200, -1e300)),
     ALL_COMMANDS, "error: graph.bonds[0]: action length*sqrt(1 - potential_lambda) must be finite, got inf"),
] + [
    (f"401-digits-{anchor}", with_field(doc, path, 10**400), ALL_COMMANDS, f"error: {anchor}: ")
    for doc, path, anchor in HUGE_INT_FIELDS
]


@pytest.mark.parametrize(
    "config, command, first",
    [(config, command, first) for _, config, commands, first in BAD_INPUTS for command in commands],
    ids=[f"{name}-{command}" for name, _, commands, _ in BAD_INPUTS for command in commands],
)
def test_bad_input_exit_2(tmp_path, capsys, config, command, first):
    path = tmp_path / "config.json"
    path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    lines = err.splitlines()
    prefixes = (first,) if isinstance(first, str) else first
    assert len(lines) == len(prefixes), err
    for prefix in prefixes:
        assert any(line.startswith(prefix) for line in lines), err
    assert "Traceback" not in err


def reference_csv(command, config):
    """The CSV text of ``solve`` or ``sample`` formatted field by field."""
    chain = build_chain(config.secular(), config.margin)
    if command == "solve":
        lines = ["n,k_n,E_n,enclosure"]
        for e in descend(chain, config.window):
            fields = (e.wavenumber, e.energy, e.enclosure)
            lines.append(",".join([str(e.index)] + [format(x, ".17g") for x in fields]))
    else:
        step = math.pi / (chain.series.leading_action * 20)
        k_lo, k_hi = config.window
        ks = np.linspace(k_lo, k_hi, math.ceil((k_hi - k_lo) / step) + 1)
        columns = [evaluate_array(chain.series, ks, m) for m in range(chain.order + 1)]
        lines = ["k," + ",".join(f"g{m}" for m in range(len(columns)))]
        for i, k in enumerate(ks):
            lines.append(",".join(format(float(x), ".17g") for x in [k] + [c[i] for c in columns]))
    return "\n".join(lines) + "\n"


class TestCsvText:
    SERIES = {"s0": 1.0, "phi0": 0.3, "terms": [[0.6, 1.2, 0.1], [0.25, 0.4, 2.0]]}

    @pytest.mark.parametrize(
        "graph,command,kmax",
        [(False, "solve", 2.5e4), (False, "sample", 1.5e3), (True, "solve", 2.5e3), (True, "sample", 2.5e3)],
        ids=["solve-25000.0", "sample-1500.0", "graph-solve-2500.0", "graph-sample-2500.0"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_matches_per_field_format(self, tmp_path, capsys, graph, command, kmax, to_file):
        if graph:
            # Enclosures in exponent form, negative values, and g0 at
            # k = 0 at rounding level.
            doc = with_field(DELTA_STAR, ["window", "kmax"], kmax)
        else:
            # More rows than one block of the writers, and two derivative levels.
            doc = {"series": self.SERIES, "window": {"kmin": 0.0, "kmax": kmax}}
        path = write_config(tmp_path, doc)
        want = reference_csv(command, load_config(json.dumps(doc)))
        if graph:
            assert ("e-" if command == "solve" else ",-") in want
        else:
            assert want.count("\n") > 4096 + 1
        if to_file:
            out_path = tmp_path / "result.csv"
            assert main([command, path, "--out", str(out_path)]) == 0
            got = out_path.read_bytes()
        else:
            assert main([command, path]) == 0
            got = capsys.readouterr().out.encode()
        assert got == want.encode()


def per_field(table):
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)


class BlockRecorder(io.StringIO):
    """A text stream that keeps the size of each write in rows and fields."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def write(self, text):
        self.blocks.append((text.count("\n"), text.count(",") + text.count("\n")))
        return super().write(text)


def written(table):
    out = BlockRecorder()
    _write_rows(out, table)
    step = max(1, _WRITE_BLOCK // table.shape[1])
    assert all(0 < rows <= step and fields <= max(_WRITE_BLOCK, table.shape[1]) for rows, fields in out.blocks)
    return out.getvalue()


# Around the ends of the double range, the change between fixed and exponent
# form at 1e-4 and 1e17, the top of 17 digits, and halfway cases: 1e15 + 0.25
# is a tie of 17 digits, which rounds half to even.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, 9.9999999999999991e-05, 0.00010000000000000002, 1e-5,
    1e16, 9999999999999998.0, 1e17, 99999999999999984.0, 12345678901234567.0,
    1e15 + 0.25, 1e15 + 0.75,
]


class TestCsvKernel:
    """The CSV writer against ``format(x, ".17g")`` field by field."""

    @settings(max_examples=400, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)),
                  elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_any_floats(self, table):
        assert written(table) == per_field(table)

    @pytest.mark.parametrize("columns", [1, 2, 3, 4])
    def test_edge_values(self, columns):
        values = np.array(EDGE_VALUES + [-x for x in EDGE_VALUES])
        table = np.resize(values, (values.size * columns, columns))
        assert written(table) == per_field(table)

    def test_edge_texts(self):
        table = np.array(EDGE_VALUES)[:, None]
        assert written(table).split("\n")[:-1] == [
            "0", "-0", "4.9406564584124654e-324", "2.2250738585072014e-308",
            "1.7976931348623157e+308", "0.0001", "9.9999999999999991e-05",
            "0.00010000000000000002", "1.0000000000000001e-05", "10000000000000000",
            "9999999999999998", "1e+17", "99999999999999984", "12345678901234568",
            "1000000000000000.2", "1000000000000000.8",
        ]

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_log10_off_by_one(self, monkeypatch, shift):
        # A less accurate log10 may return just below X at 10^X, so that D
        # has 18 digits (or 16 just above): such fields go to Python.  The
        # shift also reaches ±0, which must print without log10.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift * (np.arange(a.size) % 3 == 0))
        rng = np.random.default_rng(7)
        values = np.concatenate([EDGE_VALUES, 10.0 ** np.arange(-20, 21), 10.0 ** rng.uniform(-30, 30, 200)])
        table = np.resize(values * rng.choice([-1.0, 1.0], values.size), (values.size, 3))
        assert written(table) == per_field(table)

    @pytest.mark.parametrize("columns", [1, 3, 4])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_tables_at_block_boundaries(self, columns, extra):
        rows = _WRITE_BLOCK // columns + extra
        rng = np.random.default_rng(rows)
        table = rng.choice([-1.0, 1.0], (rows, columns)) * 10.0 ** rng.uniform(-30, 30, (rows, columns))
        assert written(table) == per_field(table)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_empty_and_single_row_tables(self, rows):
        table = np.arange(3.0 * rows).reshape(rows, 3) - 1.5
        assert written(table) == ("" if rows == 0 else "-1.5,-0.5,0.5\n")


@pytest.mark.parametrize("command", ["solve", "sample", "verify", "series"])
def test_commands_import_nothing_at_run_time(tmp_path, command):
    # Lazy imports inside numpy (``np.unique`` loads ``numpy.ma``) or the
    # standard library (``fractions`` loads ``decimal``) cost each CLI child
    # milliseconds; every module a command needs is loaded by the import.
    # Building the argument parser loads ``locale`` for argparse's messages,
    # so the modules are counted from there.
    path = write_config(tmp_path, with_field(DELTA_STAR, ["window", "kmax"], 50.0))
    script = (
        "import sys\n"
        "import qgspectra.cli\n"
        "qgspectra.cli._build_parser()\n"
        "before = set(sys.modules)\n"
        f"code = qgspectra.cli.main([{command!r}, {path!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.strip() == "0 []", proc.stdout + proc.stderr
