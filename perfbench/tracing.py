"""Spans around calls into the package's layers, for the traced run only.

The traced run rebinds every module attribute through which callers reach a
layer's public function (`fockpair.gaussian.symmetric_product`,
`fockpair.cli.gaussian_series`, ...) to a timing wrapper, and restores them
afterwards.  The untraced run never calls `install`, so the package it
measures is the unmodified one.

A span is [name, start, end, parent index, operation id, count]; spans stay
in memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover; calls in one thread nest, so
children never overlap and their durations add.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_MARK = "_perfbench_original"


def _coeff_count(element) -> int:
    return sum(len(v) for v in element.components.values())


def _decided(report) -> int:
    return int(report.verdict != "undecided")


# (layer module, public function, count taken from its result)
TARGETS = (
    ("algebra", "symmetric_product", _coeff_count),
    ("gaussian", "gaussian_series", _coeff_count),
    ("gaussian", "pair_closed", None),
    ("gaussian", "norm_sq_closed", None),
    ("pairing", "degree_terms", lambda out: len(out[0])),
    ("pairing", "pairing_1", _decided),
    ("pairing", "pairing_t", _decided),
    ("pairing", "abel_pairing", _decided),
    ("pairing", "wynn_epsilon", None),
    ("antilinear", "takagi", None),
    ("detsqrt", "det_sqrt", None),
    ("cli", "load_matrix", None),
    ("cli", "main", None),
    ("suites", "run_suite", None),
)

OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def operation(self, op_id: int, fn):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        return self.wrap(OP, fn)()

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, **(extra or {})}, fh)


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "fockpair" or name.startswith("fockpair."))]


def install(tracer: Tracer):
    """Rebind every loaded reference to a target function; return an undo."""
    undo = []
    modules = _package_modules()
    for layer, fname, count in TARGETS:
        home = sys.modules.get(f"fockpair.{layer}")
        original = getattr(home, fname, None)
        if original is None:
            continue
        wrapper = tracer.wrap(f"{layer}.{fname}", original, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore


def wrapped_attributes() -> list[str]:
    """Names of package attributes that are currently timing wrappers."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items() if hasattr(value, _MARK)]


def self_times(spans) -> list[float]:
    """Self time of every span, in span order."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (outermost calls only), self time, count."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0})
    for i, s in enumerate(spans):
        agg = out[s[0]]
        agg["calls"] += 1
        agg["self_s"] += own[i]
        agg["count"] += s[5]
        parent, nested = s[3], False
        while parent >= 0 and not nested:
            nested = spans[parent][0] == s[0]
            parent = spans[parent][3]
        if not nested:
            agg["busy_s"] += s[2] - s[1]
    return out


def layer_metrics(spans, n_ops: int, import_s: float, wrong_verdicts: int) -> dict[str, dict]:
    """The per-layer metrics, each normalised per traced operation."""
    agg = summarize(spans)
    per = 1.0 / max(n_ops, 1)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def rate(value, unit="s/op"):
        return {"value": value * per, "unit": unit}

    pair_calls = sum(get(f"pairing.{f}", "calls") for f in ("pairing_1", "pairing_t", "abel_pairing"))
    decided = sum(get(f"pairing.{f}", "count") for f in ("pairing_1", "pairing_t", "abel_pairing"))
    out = {
        "algebra.symmetric_product.calls": rate(get("algebra.symmetric_product", "calls"), "count/op"),
        "algebra.symmetric_product.self_s": rate(get("algebra.symmetric_product", "self_s")),
        "algebra.symmetric_product.coeffs_out": rate(get("algebra.symmetric_product", "count"), "count/op"),
        "gaussian.gaussian_series.calls": rate(get("gaussian.gaussian_series", "calls"), "count/op"),
        "gaussian.gaussian_series.busy_s": rate(get("gaussian.gaussian_series", "busy_s")),
        "gaussian.gaussian_series.self_s": rate(get("gaussian.gaussian_series", "self_s")),
        "gaussian.coefficients": rate(get("gaussian.gaussian_series", "count"), "count/op"),
        "gaussian.pair_closed.busy_s": rate(get("gaussian.pair_closed", "busy_s")),
        "gaussian.norm_sq_closed.busy_s": rate(get("gaussian.norm_sq_closed", "busy_s")),
        "pairing.degree_terms.busy_s": rate(get("pairing.degree_terms", "busy_s")),
        "pairing.pairing_1.self_s": rate(get("pairing.pairing_1", "self_s")),
        "pairing.pairing_t.self_s": rate(get("pairing.pairing_t", "self_s")),
        "pairing.abel_pairing.self_s": rate(get("pairing.abel_pairing", "self_s")),
        "pairing.wynn_epsilon.calls": rate(get("pairing.wynn_epsilon", "calls"), "count/op"),
        "pairing.wynn_epsilon.busy_s": rate(get("pairing.wynn_epsilon", "busy_s")),
        "pairing.terms": rate(get("pairing.degree_terms", "count"), "count/op"),
        "pairing.decided_frac": {"value": decided / pair_calls if pair_calls else 0.0, "unit": "frac"},
        "pairing.wrong_verdicts": rate(wrong_verdicts, "count/op"),
        "antilinear.takagi.calls": rate(get("antilinear.takagi", "calls"), "count/op"),
        "antilinear.takagi.busy_s": rate(get("antilinear.takagi", "busy_s")),
        "detsqrt.det_sqrt.calls": rate(get("detsqrt.det_sqrt", "calls"), "count/op"),
        "detsqrt.det_sqrt.busy_s": rate(get("detsqrt.det_sqrt", "busy_s")),
        "cli.import_s": rate(import_s),
        "cli.load_matrix.busy_s": rate(get("cli.load_matrix", "busy_s")),
        "cli.main.busy_s": rate(get("cli.main", "busy_s")),
        "suites.run_suite.busy_s": rate(get("suites.run_suite", "busy_s")),
    }
    return out
