"""md5 of every report the in-process benchmark workloads produce.

    python3 tools/report_digest.py

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  The `sweep-warm` (600 Gaussian pairs) and `verdict`
(400 sequences) input sets are fixed, and both are visited in the order
seed 1 gives.  Each operation's result contributes one line,
`f"{name} {i} {result!r}\\n"`, so the digest changes when any value, verdict,
rule, residual or report field changes by a single bit.  A change meant to
keep every result prints the same digest before and after.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sweep_warm import SweepWarm  # noqa: E402
from verdict import Verdict  # noqa: E402

ORDER_SEED = 1


def digest() -> str:
    md5 = hashlib.md5()
    for workload in (SweepWarm(), Verdict()):
        workload.setup()
        for i, op in enumerate(workload.ops(ORDER_SEED)):
            md5.update(f"{workload.name} {i} {op.call()!r}\n".encode())
    return md5.hexdigest()


if __name__ == "__main__":
    print(digest())
