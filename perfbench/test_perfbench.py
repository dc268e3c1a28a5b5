"""Smoke test of the benchmark itself, a few requests per workload.

    python3 -m pytest -q perfbench

Every metric named in BENCHMARK.json must appear with its unit, the traced
run's exact-count predictions must hold, and two traced runs with one seed
must give identical counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import program
import run
import workloads as wl

BENCH = json.loads((program.ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B")


@pytest.fixture(scope="module")
def m():
    return program.load()


def _units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_end_to_end_metrics(m, name):
    result, report = run.run_workload(m, name, seed=3, seconds=0, trace=0)
    assert result["correct"], report["failures"]
    assert result["attempted"] == wl.STRATA
    assert report["failed_share"] == 0
    assert _units(result) == {e["name"]: e["unit"] for e in BENCH["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_metrics_and_exact_counts(m, name):
    first, report = run.run_workload(m, name, seed=3, seconds=0, trace=1)
    second, _ = run.run_workload(m, name, seed=3, seconds=0, trace=1)
    assert first["correct"], report["failures"]
    assert _units(first) == {e["name"]: e["unit"] for e in BENCH["per_layer"]}

    predicted = report["predictions"]
    assert predicted["hold"], predicted
    values = {k: e["value"] for k, e in first["metrics"].items()}
    if wl.WORKLOADS[name].mode == "baseline16":
        assert predicted["four_bit_calls"] == 0
        assert predicted["high_forwards"] > 0
    else:
        assert predicted["nvfp4_forwards"] > 0
        assert values["model.shadow.hit_ratio"] == 1.0
        assert values["quantizer.quantize_rows.calls"] == values["gemm.qgemm_rows.calls"]
        assert values["quantizer.quantize_rows.calls"] == 14 * predicted["nvfp4_forwards"]

    def counts(result):
        return {k: e["value"] for k, e in result["metrics"].items()
                if e["unit"] in COUNT_UNITS}

    assert counts(first) == counts(second)


def test_fails_without_the_program(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "long_prompt_mixquant",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
