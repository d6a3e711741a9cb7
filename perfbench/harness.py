"""Closed-loop runner, latency statistics and the environment stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from outcome import FAILED, Judgement


_GOLDEN = (5**0.5 - 1) / 2

# A fixed reference kernel times the machine's current speed.  On a shared
# host the same work can take 1.7x longer for minutes at a time (measured: a
# fixed loop swings between two speeds, per core), which moves every
# wall-clock time of a run with it.  Times are reported at the nominal speed
# at which this kernel takes REF_NOMINAL_S: a run's times are divided by the
# kernel's slowdown measured between its operations.
#
# The kernel mixes the three kinds of work the operations do: an interpreter
# loop, small complex numpy vector operations (as in Wynn's table) and dict
# updates under tuple keys (as in the sparse algebra).  In a slow spell a
# pure interpreter loop slowed down less than the operations did (operation
# time went as its time to the power 1.3); this mix slowed down about as
# much as they did (power 0.95).
REF_NOMINAL_S = 2.6e-4
# kernel samples per operation: one per this much operation time, at least one
REF_EVERY_S = 0.01
REF_MAX_PER_OP = 50
_REF_Z = np.exp(1j * np.linspace(0.0, 3.0, 64))


def reference_kernel() -> float:
    t0 = time.perf_counter()
    x = 0.0
    for i in range(1500):
        x += i * i % 7
    for _ in range(15):
        d = _REF_Z[1:] - _REF_Z[:-1]
        x += abs((1.0 / (d + 1.0)).sum())
    acc: dict[tuple[int, int], int] = {}
    for i in range(300):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """Median kernel time over nominal."""
    return statistics.median(samples) / REF_NOMINAL_S


def even_draw(visit: int, offset: float, lo: float, hi: float) -> float:
    """Point `visit` of a golden-ratio sequence on [lo, hi), shifted by `offset`.

    Successive visits cover the interval evenly whatever the offset, and
    unlike a linear grid they do not move in step with another quantity
    spread linearly over the same visits.
    """
    return lo + ((offset + visit * _GOLDEN) % 1.0) * (hi - lo)


def visit_order(cells: int, points: int, seed: int) -> list[tuple[int, int]]:
    """Order in which a run visits a cells x points input set.

    Visit v runs one point of every cell, in cell order.  Within a cell the
    points come in golden-ratio order, so the points of the first v visits
    are spread evenly over the cell whatever v is; the seed rotates that
    order by its own amount in each cell.  A run's partial last pass over
    the set is then a like-for-like sample of it in every run.
    """
    spread = sorted(range(points), key=lambda v: (v * _GOLDEN) % 1.0)
    rank = [0] * points
    for r, v in enumerate(spread):
        rank[v] = r
    shifts = np.random.default_rng(seed).integers(0, points, cells)
    return [(c, int((rank[v] + shifts[c]) % points)) for v in range(points) for c in range(cells)]


@dataclass
class Op:
    """One operation: the timed call into the program and its untimed check."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[Judgement]]


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    judged: set[int] = field(default_factory=set)  # inputs run at least once
    # input -> (kind, reasons) of its first failed run
    failures: dict[int, tuple[str, list[str]]] = field(default_factory=dict)
    wrong_verdicts: int = 0
    slowdowns: list[float] = field(default_factory=list)  # one per operation
    window: float = 0.0
    done_in_window: float = 0.0  # operations finished inside the window

    @property
    def attempted(self) -> int:
        """Operations run, repeats of an input included."""
        return len(self.latencies)

    @property
    def throughput(self) -> float:
        return self.done_in_window / self.window

    @property
    def nominal_latencies(self) -> list[float]:
        """Each latency at the nominal speed measured right after it."""
        return [lat / s for lat, s in zip(self.latencies, self.slowdowns)]

    @property
    def mean_slowdown(self) -> float:
        """Slowdown over the run, each operation weighted by its time."""
        return sum(lat * s for lat, s in zip(self.latencies, self.slowdowns)) / sum(self.latencies)


def _judge(op: Op, raw) -> list[Judgement]:
    if isinstance(raw, Exception):
        return [Judgement(FAILED, f"raised {raw!r}")]
    return op.check(raw)


def _record(phase: Phase, key: int, kind: str, judgements: list[Judgement]) -> None:
    reasons = [j.reason for j in judgements if j.status == FAILED]
    phase.judged.add(key)
    if reasons:
        phase.failures.setdefault(key, (kind, reasons))
    phase.wrong_verdicts += sum(j.wrong_verdict for j in judgements)


def closed_loop(ops: Sequence[Op] | Iterator[Op], seconds: float, tracer=None) -> Phase:
    """One client: start the next operation only when the previous one ended.

    `ops` is either a finite input set, visited in its order and again from
    the start until the window closes, or an endless stream of inputs that
    are never repeated.  Operations start until `seconds` have passed; the
    one in flight then finishes and counts.  Throughput is work done inside
    the window, with the operation in flight at the deadline counted by the
    share of it that ran before the deadline, so it does not jump by whole
    slow operations.  A call that raises is a failed operation.
    Reference-kernel samples taken after each operation extend the deadline
    by their own time.
    """
    cyclic = isinstance(ops, Sequence)
    phase = Phase(window=seconds)
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline:
        key = phase.attempted % len(ops) if cyclic else phase.attempted
        op = ops[key] if cyclic else next(ops)
        t0 = clock()
        try:
            raw = op.call() if tracer is None else tracer.operation(phase.attempted, op.call)
        except Exception as exc:  # the program under test failed this operation
            raw = exc
        t1 = clock()
        _record(phase, key, op.kind, _judge(op, raw))
        phase.latencies.append(t1 - t0)
        phase.kinds.append(op.kind)
        phase.done_in_window += 1.0 if t1 <= deadline else (deadline - t0) / (t1 - t0)
        t2 = clock()
        reps = min(REF_MAX_PER_OP, 1 + int((t1 - t0) / REF_EVERY_S))
        phase.slowdowns.append(slowdown([reference_kernel() for _ in range(reps)]))
        deadline += clock() - t2
    return phase


def tally(ops: Sequence[Op] | Iterator[Op], phases: list[Phase]) -> tuple[int, dict]:
    """(inputs judged, failures by input) over the phases of one run.

    A finite input set is judged in full: inputs the window did not reach run
    once more here, untimed, so every run of it judges the same inputs.  An
    input counts once, as failed if any of its runs failed.
    """
    extra = Phase()
    judged = set().union(*(p.judged for p in phases))
    if isinstance(ops, Sequence):
        for key in range(len(ops)):
            if key not in judged:
                op = ops[key]
                try:
                    raw = op.call()
                except Exception as exc:  # the program under test failed this input
                    raw = exc
                _record(extra, key, op.kind, _judge(op, raw))
        judged |= extra.judged
    failures: dict[int, tuple[str, list[str]]] = {}
    for p in (*phases, extra):
        for key, failure in p.failures.items():
            failures.setdefault(key, failure)
    return len(judged), failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  The value is the eleventh largest
    sample; with ten samples or fewer no percentile qualifies and the
    maximum is returned at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(phase: Phase, setup_samples: list[float], peak_rss_mb: float, ok_frac: float) -> dict[str, dict]:
    """End-to-end metrics; times at the nominal machine speed."""
    nominal = phase.nominal_latencies
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "throughput_ops_s": {"value": phase.throughput * phase.mean_slowdown, "unit": "1/s"},
        "latency_p50_s": {"value": statistics.median(nominal), "unit": "s"},
        "latency_tail_s": {"value": tail(nominal)[0], "unit": "s"},
        "ok_frac": {"value": ok_frac, "unit": "frac"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def latency_breakdown(phase: Phase) -> dict[str, dict]:
    """Median latency and count per operation kind."""
    by_kind: dict[str, list[float]] = {}
    for kind, lat in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(lat)
    return {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in sorted(by_kind.items())}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fname in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                      "openblas_get_num_threads"):
            fn = getattr(lib, fname, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def _git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def environment(root: str, seed: int, heldout_seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "seed": seed,
        "heldout_seed": heldout_seed,
    }
