"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 12345  # not the default seed of run.py

sys.path.insert(0, str(ROOT / "perfbench"))
from spans import EXACT_COUNTS  # noqa: E402


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_and_no_failures(workload):
    result, lines = result_of(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    fail_line = [ln for ln in lines if ln.strip().startswith("fail_ratio")]
    assert fail_line and fail_line[0].split()[1] == "0"
    assert lines[0].startswith("env: ")
    env = json.loads(lines[0][len("env: "):])
    assert env["seed"] == SEED
    assert {"nproc", "python", "numpy", "sympy", "git_commit"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_layers_and_repeats_counts(workload):
    first, _ = result_of(run_bench(workload, 1))
    second, _ = result_of(run_bench(workload, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
