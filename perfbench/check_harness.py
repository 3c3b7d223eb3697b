"""Smoke test of the benchmark harness at a tiny input size.

    python3 -m pytest -q perfbench/check_harness.py

It records a tiny golden set, runs every workload once with tracing off
and once with it on, and checks that every metric BENCHMARK.json names is
printed with its unit. It then corrupts one golden file hash and checks
that the run reports the failure and exits nonzero, that a file changed on
disk after the operation is reported although its manifest is unchanged,
and that the benchmark refuses to run where the olmsim sources are
missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOAD_NAMES

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(golden: Path, workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny", "--golden", str(golden)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module")
def golden(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / "golden.json"
    subprocess.run([sys.executable, str(PERFBENCH / "record_golden.py"), "--size", "tiny", "--out", str(path)],
                   cwd=ROOT, check=True, capture_output=True, timeout=170)
    return path


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(golden, workload, trace, key):
    proc, result = run_bench(golden, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(isinstance(entry["value"], (int, float)) for entry in result["metrics"].values())


def test_corrupted_golden_hash_is_reported_as_failure(golden, tmp_path):
    data = json.loads(golden.read_text())
    for entry in data["demo"].values():
        entry["outputs"]["panel.csv"] = "0" * 64
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(data))
    proc, result = run_bench(corrupted, "demo", 0)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "/outputs/panel.csv: expected" in proc.stderr


def test_refuses_to_run_without_the_sources(golden, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench(golden, "demo", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_file_changed_on_disk_is_reported(golden, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    bench = workloads.make("demo", "tiny", tmp_path / "work", golden)
    bench.prepare([0])
    result = bench.op(0)
    assert bench.check(0, result) == []
    (bench.out / "panel.csv").write_text("changed\n")
    problems = bench.check(0, result)
    assert any("/outputs/panel.csv: expected" in p for p in problems)
    assert any("differ from the files written" in p for p in problems)
