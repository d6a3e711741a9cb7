"""Smoke test of the benchmark harness: short verdict and sweep-warm runs emit their result lines.

Both workloads judge their whole input set against the oracle after the
window closes, so each run checks every input, however short the window.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_verdict_workload_emits_result_line():
    result = _run("verdict")
    assert result["correct"] is True
    assert result["attempted"] == 400
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(result["metrics"])
    assert len(declared) == 6


def test_sweep_warm_workload_judges_every_input():
    result = _run("sweep-warm")
    assert result["correct"] is True
    assert result["attempted"] == 600
    assert result["failed"] == 0
