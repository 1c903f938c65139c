"""Self-test of the benchmark: every workload once, shortened, in both modes.

    python3 -m pytest perfbench/test_perfbench.py

Checks that each run prints every metric of BENCHMARK.json, finite and
with its unit, that the run record carries the figures kept out of the
metrics (recover time, accuracy, failures), and that the benchmark refuses
to run without the program's sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the fewest cycles that still run every layer of each workload
CYCLES = {"dense12-recover": 2, "mps35-chi32": 1, "dense21-phase": 1}
ACCURACY = {
    "dense12-recover": {"recovery_delta_err", "recovery_chi_err", "deconv_tv"},
    "mps35-chi32": {"recovery_delta_err", "recovery_chi_err", "mps_delta_err"},
    "dense21-phase": set(),
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--cycles", str(CYCLES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric(workload: str, trace: int) -> None:
    result = run_bench(ROOT, workload, trace)
    assert result.returncode == 0, result.stderr
    *_, record_line, last_line = result.stdout.strip().splitlines()
    last = json.loads(last_line)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = last["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert _finite(got["value"]), metric["name"]

    record = json.loads(record_line)["record"]
    assert set(record["accuracy"]) == ACCURACY[workload]
    assert all(_finite(v) for v in record["accuracy"].values())
    assert record["fail_frac"] == 0.0
    if workload == "dense12-recover":
        assert _finite(record["timings"]["recover_wall_s"]["median"])


def test_refuses_to_run_without_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = run_bench(tmp_path, "dense12-recover", 0)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
