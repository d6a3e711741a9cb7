"""Smoke test of the benchmark harness: one short verdict run emits its result line."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_verdict_workload_emits_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 400
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(result["metrics"])
    assert len(declared) == 6
