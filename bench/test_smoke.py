"""Smoke test of the benchmark at tiny sizes, with negative controls.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result, lines


def printed_units(lines: list[str]) -> dict[str, str]:
    """``name value unit`` lines printed before the result line."""
    return {t[0]: t[2] for t in (line.split() for line in lines[:-1]) if len(t) == 3}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    result, lines = result_of(bench(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # fail_ratio is printed with the others; the result line carries it as failed/attempted.
    assert printed_units(lines) == {**expected, "fail_ratio": "ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(workload):
    result, lines = result_of(bench(workload, 1))
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert printed_units(lines) == expected
    value = {k: v["value"] for k, v in metrics.items()}
    # Self times of one traced operation add up to at most its duration,
    # and the traced calls cover most of it.
    assert 0.5 * value["trace.op_p50_ms"] <= value["trace.self_sum_ms"] <= value["trace.op_p50_ms"]
    sizes = workloads.SIZES["smoke"][workload]
    if workload == "study":
        rows = len(workloads.STUDY_EPS)
        assert value["study.run_study.rows"] == rows
        # spectral_norm is reached through the names theory and pencil imported.
        assert value["kernels.spectral_norm.calls"] >= 10 * rows
        assert value["theory.full_diagnostics.calls"] == rows
    elif workload == "extract":
        assert value["refined.refined_ritz.calls"] == 2 * sizes["m"]
        assert value["kernels.orthonormality_defect.calls"] == 2 * sizes["m"] + 1
        assert value["theory.full_diagnostics.calls"] == 0
    else:
        assert value["cli.main.calls"] == 1
        assert value["mmio.read_matrix_market.calls"] == 3
        assert value["mmio.read_matrix_market.bytes"] > 3 * sizes["n"] ** 2 * 40
        assert value["solver.solve_full.calls"] == 1
    assert value["kernels.lapack_svd.calls"] >= 1 and value["kernels.lapack_svd.mflop"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("study", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _checked_workload(name: str, tmp_path: Path):
    w = workloads.make(name, 7, "smoke", tmp_path)
    w.setup()
    assert w.check(0, w.op(0)) == []
    return w


def test_negative_control_study_wrong_reference_vector(tmp_path):
    w = _checked_workload("study", tmp_path)
    w.case = dataclasses.replace(w.case, ref_vector=w.case.companions[:, 0])
    assert w.check(1, w.op(1))


def test_negative_control_extract_wrong_reference_vector(tmp_path):
    w = _checked_workload("extract", tmp_path)
    out = w.op(1)
    w.x1 = w.companions[:, 0]
    assert w.check(1, out)


def test_negative_control_files_wrong_reference_eigenvalues(tmp_path):
    w = _checked_workload("files", tmp_path)
    w.values = w.values + 1e-3
    assert w.check(1, w.op(1))
