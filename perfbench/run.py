"""Benchmark of the fockpair engine: three workloads, one closed-loop client.

    python3 perfbench/run.py --workload cli-cold|sweep-warm|verdict \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The line before it is a full
report with the environment stamp, latency breakdown and failure reasons.
See perfbench/README.md for every metric and the baseline numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import harness
import oracle
import tracing
from cli_cold import CliCold
from sweep_warm import SweepWarm
from verdict import Verdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"cli-cold": CliCold, "sweep-warm": SweepWarm, "verdict": Verdict}
SETUP_SAMPLES = 3
SETUP_REF_SAMPLES = 50
# a second seed, never used while writing a change, that claims must also hold on
HELDOUT_SEED = 7919


def oracle_self_check() -> bool:
    """The oracle agrees with itself by two independent routes."""
    ok = all(
        np.allclose(oracle.spectrum_terms(eigs, 60), oracle.sequence_terms(name, 60), rtol=1e-12, atol=1e-12)
        for name, (eigs, _) in oracle.SEQUENCES.items()
    )
    eigs = (0.5, -0.3 + 0.2j, 0.1j)
    partial = complex(np.sum(oracle.spectrum_terms(eigs, 200)))
    return ok and abs(partial - oracle.generating_value(eigs)) < 1e-12


def make_workload(name: str):
    return WORKLOADS[name](ROOT) if name == "cli-cold" else WORKLOADS[name]()


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Set up an in-process workload in a fresh interpreter; return its times."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def timed_setup(workload) -> tuple[float, float]:
    """Setup time at the nominal machine speed, and the raw time."""
    refs = [harness.reference_kernel() for _ in range(SETUP_REF_SAMPLES)]
    t0 = time.perf_counter()
    workload.setup()
    raw = time.perf_counter() - t0
    refs += [harness.reference_kernel() for _ in range(SETUP_REF_SAMPLES)]
    return raw / harness.slowdown(refs), raw


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def traced_run(workload, seed: int, seconds: float):
    """Untraced and traced halves on the same inputs; per-layer metrics."""
    plain = harness.closed_loop(workload.ops(seed), seconds / 2)
    tracer = tracing.Tracer()
    import_s = 0.0
    if workload.in_process:
        restore = tracing.install(tracer)
        try:
            traced = harness.closed_loop(workload.ops(seed), seconds / 2, tracer)
        finally:
            restore()
    else:
        spans_dir = os.path.join(workload.work, "spans")
        os.makedirs(spans_dir)
        workload.trace_dir = spans_dir
        traced = harness.closed_loop(workload.ops(seed), seconds / 2, tracer)
        import_s = _merge_child_spans(tracer, spans_dir, traced.attempted)
    metrics = tracing.layer_metrics(tracer.spans, traced.attempted, import_s, traced.wrong_verdicts)
    nominal = [p.throughput * p.mean_slowdown for p in (plain, traced)]
    metrics["trace.overhead_frac"] = {"value": 1.0 - nominal[1] / nominal[0], "unit": "frac"}
    return [plain, traced], metrics, tracer


def _merge_child_spans(tracer, spans_dir: str, n_ops: int) -> float:
    """Graft each child process's spans under the operation span that ran it."""
    roots = {s[4]: i for i, s in enumerate(tracer.spans) if s[0] == tracing.OP}
    import_s = 0.0
    for op_id in range(n_ops):
        path = os.path.join(spans_dir, f"{op_id}.json")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            doc = json.load(fh)
        import_s += doc["import_s"]
        base = len(tracer.spans)
        for name, start, end, parent, _, count in doc["spans"]:
            tracer.spans.append([name, start, end, roots[op_id] if parent < 0 else parent + base, op_id, count])
    return import_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockpair", "__init__.py")):
        print(f"no fockpair sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Core speeds drift independently on a shared host.  One core for this
    # process and every child it starts means the reference kernel measures
    # the speed of the core the operations ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = make_workload(args.workload)
    if args.setup_probe:
        print(json.dumps(timed_setup(workload)))
        return 0
    try:
        setups = [timed_setup(workload)]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(setup_probe(args.workload, args.seed) if workload.in_process
                              else timed_setup(workload))
        if args.trace:
            phases, metrics, tracer = traced_run(workload, args.seed, args.seconds)
            attempted, failures = harness.tally(workload.ops(args.seed), phases)
        else:
            ops = workload.ops(args.seed)
            phases = [harness.closed_loop(ops, args.seconds)]
            rss = peak_rss_mb(workload)
            attempted, failures = harness.tally(ops, phases)
            metrics = harness.end_to_end(phases[0], [s[0] for s in setups], rss, 1.0 - len(failures) / attempted)
            tracer = None
    finally:
        if hasattr(workload, "close"):
            workload.close()

    failed = len(failures)
    raw_tail, tail_pct, tail_n = harness.tail(phases[-1].latencies)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": harness.environment(ROOT, args.seed, HELDOUT_SEED),
        "setup_samples_s": {"nominal": [s[0] for s in setups], "raw": [s[1] for s in setups]},
        "slowdown": phases[-1].mean_slowdown,
        "raw": {"throughput_ops_s": phases[-1].throughput, "latency_p50_s": statistics.median(phases[-1].latencies),
                "latency_tail_s": raw_tail},
        "latency_tail": {"percentile": tail_pct, "samples": tail_n},
        "operations": sum(p.attempted for p in phases),
        "failed_frac": failed / attempted,
        "wrong_verdicts": sum(p.wrong_verdicts for p in phases),
        "by_kind": harness.latency_breakdown(phases[-1]),
        "failures": [{"input": i, "kind": k, "reasons": r} for i, (k, r) in sorted(failures.items())][:50],
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": oracle_self_check(), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
