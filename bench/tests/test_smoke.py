"""Smoke runs of the benchmark at tiny sizes.

Run from the repository root:  python -m pytest -q bench/tests

Every workload runs once timed and once traced. Each run must print, as its
last line, exactly the metrics BENCHMARK.json declares for that mode, with
their units, and finish with no failed op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# grid-2d is not declared in BENCHMARK.json (see README) but must not rot either.
WORKLOADS = ["section-1d", "grid-2d", "cli-pipeline"]


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_declared_metrics(workload, trace, declared):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # error_rate = failed / attempted must be 0
    assert result["failed"] == 0 and result["attempted"] >= 1, proc.stderr[-3000:]
    assert result["correct"], proc.stderr[-3000:]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[declared]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
