"""md5 of every report the in-process benchmark workloads produce.

    python3 tools/report_digest.py [--lines]

Run from anywhere inside a source checkout; the package is imported from
its `src/` directory.  The `sweep-warm` (600 Gaussian pairs) and `verdict`
(400 sequences) input sets are fixed, and both are visited in the order
seed 1 gives.  Each operation's result contributes one line,
`f"{name} {i} {result!r}\\n"`, so the digest changes when any value, verdict,
rule, residual or report field changes by a single bit.  The `stream`
lines are the CLI's route on the same 600 pairs: `gaussian_terms(x, y, cap)`
on each `sweep-warm` operation's two matrices and cap, one line
`f"stream {i} {finite} {terms.tobytes().hex()}\\n"` per pair, so every bit
of every term counts.  The `tables` lines are the scatter tables
themselves: one line per plan that the `sweep-warm` setup asks for, in the
order first asked, with its key and the md5 of its positions' and weights'
bytes, then one such line per table the CLI's stream builds for a dense
seed at m = 4, cap 62, which no `sweep-warm` input reaches.  The `lift`
lines are the functorial lift: one line per m = 1 to 4 and d = 0 to 8, the
md5 of the bytes of `symmetric_power_matrix(W, d)` for a fixed random
complex m x m matrix W.  One line per set, `sweep-warm <md5>`,
`verdict <md5>`, `stream <md5>`, `tables <md5>` and `lift <md5>`, digests
that set's lines alone, so a moved digest names the route whose
results moved; the last line is the digest of all of them.
A change meant to keep every result prints the same last line before and
after.  Compare two checkouts with one copy of this tool.

With --lines it prints no digest but one line per pairing report,
`workload i key verdict rule`, where key is the report's name in a
`sweep-warm` result (norm, cross, scaled, abel) and its method in a
`verdict` result.  `diff` of two checkouts' lines lists every verdict or
rule that moved.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402
from sweep_warm import SweepWarm  # noqa: E402
from verdict import Verdict  # noqa: E402

ORDER_SEED = 1


def results():
    """(workload name, i, result) of every operation, in order."""
    for workload in (SweepWarm(), Verdict()):
        workload.setup()
        for i, op in enumerate(workload.ops(ORDER_SEED)):
            yield workload.name, i, op.call()


def stream_terms():
    """(i, terms, finite) of gaussian_terms on each `sweep-warm` operation's pair, in order."""
    from fockpair.gaussian import GaussianSeed, gaussian_terms

    for i, op in enumerate(SweepWarm().ops(ORDER_SEED)):
        a, b, cap, _ = op.call.args
        yield i, *gaussian_terms(GaussianSeed.from_matrix(a), GaussianSeed.from_matrix(b), cap)


TABLE_SEED = 4
TABLE_SHAPE = (4, 62)  # (m, cap) of the stream whose tables are hashed


def _recorded(module, name: str, run, keep) -> list:
    """keep(args, result) of every call run() makes to module.name, which is restored after."""
    kept, inner = [], getattr(module, name)

    def call(*args):
        out = inner(*args)
        kept.append(keep(args, out))
        return out

    setattr(module, name, call)
    try:
        run()
    finally:
        setattr(module, name, inner)
    return kept


def _table_md5(*tables) -> str:
    """md5 of the bytes of the tables, in order: a 1-D or 2-D array, or a tuple of rows."""
    md5 = hashlib.md5()
    for table in tables:
        for part in (table,) if isinstance(table, np.ndarray) else table:
            md5.update(part.tobytes())
    return md5.hexdigest()


def table_lines():
    """One line per scatter plan the `sweep-warm` setup asks for, then per stream table at TABLE_SHAPE."""
    from fockpair import algebra, gaussian

    plans = dict(_recorded(algebra, "_scatter_plan", SweepWarm().setup, lambda key, out: (key, _table_md5(*out))))
    for i, (key, md5) in enumerate(plans.items()):
        yield f"tables plan {i} {key} {md5}\n"
    m, cap = TABLE_SHAPE
    # a random complex symmetric matrix: every degree-2 entry is live
    seed = gaussian.GaussianSeed.from_matrix(oracle.random_symmetric(np.random.default_rng(TABLE_SEED), m, 0.7))
    tables = _recorded(gaussian, "_scatter_map", lambda: gaussian.gaussian_terms(seed, seed, cap),
                       lambda args, out: (args[1], _table_md5(*out)))
    for i, (d_src, md5) in enumerate(tables):
        yield f"tables stream {i} {d_src} {md5}\n"


LIFT_SEED = 5


def lift_lines():
    """One line per (m, d) of the lift of a fixed W, m = 1 to 4, d = 0 to 8."""
    from fockpair.algebra import symmetric_power_matrix

    rng = np.random.default_rng(LIFT_SEED)
    for m in range(1, 5):
        W = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for d in range(9):
            yield f"lift {m} {d} {_table_md5(symmetric_power_matrix(W, d))}\n"


def digests() -> tuple[dict[str, str], str]:
    """md5 of each set's lines, and of all of them in order, hashed as they come."""
    lines = itertools.chain(
        ((name, f"{name} {i} {result!r}\n") for name, i, result in results()),
        (("stream", f"stream {i} {finite} {terms.tobytes().hex()}\n") for i, terms, finite in stream_terms()),
        (("tables", line) for line in table_lines()),
        (("lift", line) for line in lift_lines()))
    every, each = hashlib.md5(), {}
    for name, line in lines:
        each.setdefault(name, hashlib.md5()).update(line.encode())
        every.update(line.encode())
    return {name: md5.hexdigest() for name, md5 in each.items()}, every.hexdigest()


def report_lines():
    """One `workload i key verdict rule` line per pairing report, in order."""
    for name, i, result in results():
        named = result.items() if isinstance(result, dict) else ((r.method, r) for r in result)
        for key, report in named:
            if hasattr(report, "verdict"):  # not a closed-form number
                yield f"{name} {i} {key} {report.verdict} {report.rule}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        for line in report_lines():
            print(line)
    elif sys.argv[1:]:
        sys.exit(__doc__.split("\n\n")[1])
    else:
        each, both = digests()
        for name, md5 in each.items():
            print(name, md5)
        print(both)
