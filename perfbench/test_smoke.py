"""Smoke test: every workload at one op, every metric printed with its unit;
and failed ops make the run incorrect.

Run with ``python -m pytest perfbench`` from the repository root.  A traced
run also prints the end-to-end metrics of its untraced passes, so one traced
run per workload covers both metric lists.
"""

import json
import os
import re

import numpy as np
import pytest

import run

run.import_library()
# These need the library on the path.
from qgspectra.cli import load_config  # noqa: E402
from qgspectra.oracle import VerificationReport  # noqa: E402
from qgspectra.solver import build_chain, descend  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS, Op, Verdict, _settle  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# Printed although BENCHMARK.json does not gate them: fail_frac is 0 on a
# healthy tree, op_p90 needs 100 ops, which no listed workload reaches in
# one run, and the raw wall-clock figures follow the host's speed.
ALSO_PRINTED = {
    "fail_frac": "1", "op_p90_norm_s": "s", "ref_kernel_s": "s", "setup_raw_s": "s",
    "wall_s": "s", "roots_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
}


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def one_op(workload: str, trace: int, capsys) -> list[str]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0, "\n".join(lines)
    return lines


def check_json(line: str, section: str) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(section)


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_metric(workload, capsys):
    lines = one_op(workload, 1, capsys)
    expected = declared("end_to_end") | declared("per_layer") | ALSO_PRINTED
    for name, unit in expected.items():
        pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$"
        assert any(re.match(pattern, line) for line in lines), f"{name} [{unit}] not printed"
    check_json(lines[-1], "per_layer")


def test_untraced_run_reports_end_to_end_metrics(capsys):
    lines = one_op("cli_batch", 0, capsys)
    check_json(lines[-1], "end_to_end")


class Raising:
    """A workload whose only op raises."""

    tracer = None

    def ops(self):
        def boom():
            raise RuntimeError("injected failure")

        return [Op("boom", boom)]

    def check(self, outputs, want_levels):
        return Verdict()

    @staticmethod
    def same(a, b):
        return a == b


def test_raising_op_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "graph_build", lambda rng, workdir: Raising())
    code = run.main(["--workload", "graph_build", "--seed", "7", "--seconds", "0",
                     "--trace", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


@pytest.mark.parametrize("position", range(len(CLI_COMMANDS)))
@pytest.mark.parametrize("exit_code", [1, 2, 3])
def test_cli_nonzero_exit_is_wrong(position, exit_code, tmp_path):
    workload = WORKLOADS["cli_batch"](np.random.default_rng(7), str(tmp_path))
    outputs = [None] * len(CLI_COMMANDS)  # None: raised, counted by the loop
    outputs[position] = (exit_code, b"")
    verdict = workload.check(outputs, want_levels=False)
    assert verdict.bad == {position}


def test_verify_mismatch_is_wrong(tmp_path):
    workload = WORKLOADS["cli_batch"](np.random.default_rng(7), str(tmp_path))
    outputs = [None] * len(CLI_COMMANDS)
    report = {"matched": 3, "missing": [], "spurious": [1.5], "max_deviation": 0.0}
    outputs[CLI_COMMANDS.index("verify")] = (4, json.dumps(report).encode())
    verdict = workload.check(outputs, want_levels=False)
    assert verdict.bad == {CLI_COMMANDS.index("verify")}


def test_fine_scan_settles_a_missing_root(tmp_path):
    workload = WORKLOADS["cli_batch"](np.random.default_rng(7), str(tmp_path))
    series = load_config(workload.text).secular()
    window = (0.0, 50.0)
    ks = descend(build_chain(series), window).wavenumbers
    report = VerificationReport(matched=len(ks) - 1, missing=(float(ks[3]),), spurious=(),
                                max_deviation=0.0)
    assert "false mismatch" in _settle(report, series, window, ks)
    assert "confirms a solver error" in _settle(report, series, window, np.delete(ks, 3))
