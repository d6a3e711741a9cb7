"""md5 of every report the in-process benchmark workloads produce.

    python3 tools/report_digest.py

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  The `sweep-warm` (600 Gaussian pairs) and `verdict`
(400 sequences) input sets are fixed, and both are visited in the order
seed 1 gives.  Each operation's result contributes one line,
`f"{name} {i} {result!r}\\n"`, so the digest changes when any value, verdict,
rule, residual or report field changes by a single bit.  One line per
workload, `sweep-warm <md5>` and `verdict <md5>`, digests that workload's
lines alone, so a moved digest names the workload whose reports moved; the
last line is the digest of both.  A change meant to keep every result
prints the same last line before and after.
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


def digests() -> tuple[dict[str, str], str]:
    """md5 of each workload's report lines, and of all of them in order."""
    both, each = hashlib.md5(), {}
    for workload in (SweepWarm(), Verdict()):
        workload.setup()
        own = hashlib.md5()
        for i, op in enumerate(workload.ops(ORDER_SEED)):
            line = f"{workload.name} {i} {op.call()!r}\n".encode()
            own.update(line)
            both.update(line)
        each[workload.name] = own.hexdigest()
    return each, both.hexdigest()


if __name__ == "__main__":
    each, both = digests()
    for name, md5 in each.items():
        print(name, md5)
    print(both)
