"""Command-line interface: matrix ingestion, pairings, verification suites.

One JSON report per run goes to standard output; diagnostics go to standard
error.  Exit codes: 0 success/converged, 1 malformed input or failed suite,
2 divergence verdict, 3 undecided verdict, 4 domain violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__, antilinear, gaussian, suites
from .detsqrt import det_sqrt, segment_branch_check
from .errors import DomainError, FockpairError
from .gaussian import GaussianSeed, gaussian_series
from .pairing import (
    RegularizationConfig,
    abel_pairing,
    divergence_demo,
    pairing_1,
    pairing_t,
    sequence_noninvariance_demo,
)

_LOAD_SYMMETRY_TOL = 1e-10


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for divergence verdicts; route usage problems to the input-error code
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def load_matrix(path: str, want_role: str | None = None) -> np.ndarray:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliInputError(f"{path}: expected a JSON object")
    try:
        m = int(doc["dim"])
        role = doc["role"]
        entries = doc["entries"]
    except KeyError as exc:
        raise CliInputError(f"{path}: missing field {exc}") from exc
    if role not in ("antilinear_symmetric", "general"):
        raise CliInputError(f"{path}: unknown role {role!r}")
    if want_role is not None and role != want_role:
        raise CliInputError(f"{path}: expected role {want_role}, found {role}")
    if m < 1 or not isinstance(entries, list) or len(entries) != m:
        raise CliInputError(f"{path}: entries must form a {m} x {m} array")
    out = np.empty((m, m), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != m:
            raise CliInputError(f"{path}: row {i} must have {m} entries")
        for j, cell in enumerate(row):
            try:
                out[i, j] = float(cell["re"]) + 1j * float(cell["im"])
            except (TypeError, KeyError, ValueError) as exc:
                raise CliInputError(f"{path}: bad entry at ({i},{j}): {exc}") from exc
    if role == "antilinear_symmetric":
        gap = float(np.abs(out - out.T).max())
        if gap > _LOAD_SYMMETRY_TOL:
            raise CliInputError(f"{path}: matrix is not symmetric (gap {gap:.3e})")
        out = (out + out.T) / 2.0  # remove file-level rounding exactly
    return out


def _encode(obj):
    # non-finite floats become null, so that reports are strict JSON (RFC 8259)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _encode(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _encode(float(obj.real)), "im": _encode(float(obj.imag))}
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_encode(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    return obj


def _emit(command: str, config: dict, result, t0: float) -> None:
    doc = {
        "command": command,
        "config": _encode(config),
        "result": _encode(result),
        "wall_time_s": time.perf_counter() - t0,
        "version": __version__,
    }
    json.dump(doc, sys.stdout, allow_nan=False)
    sys.stdout.write("\n")


def _verdict_exit(verdict: str) -> int:
    return {"converged": 0, "divergent": 2, "undecided": 3}[verdict]


def _config_from_args(args) -> RegularizationConfig:
    return RegularizationConfig(tolerance=args.tol, max_degree=args.max_degree)


def _seed_from_file(path: str) -> GaussianSeed:
    return GaussianSeed.from_matrix(load_matrix(path, "antilinear_symmetric"))


def _cmd_pair(args) -> int:
    t0 = time.perf_counter()
    if args.method == "abel" and args.t is not None:
        raise CliInputError("--t does not apply to --method abel, which takes its own grid t -> 1")
    cfg = _config_from_args(args)
    sx = _seed_from_file(args.x)
    sy = _seed_from_file(args.y)
    config = {"method": args.method, "t": args.t, "tolerance": cfg.tolerance, "max_degree": cfg.max_degree}
    if args.method == "closed":
        t = 1.0 if args.t is None else args.t
        if t <= 0.0:
            raise ValueError("t must be in (0, 1]")
        # degree d carries t^(2d), as in the series method; the Gaussian
        # degrees are 2n, so the closed form is evaluated at parameter t^2
        value = gaussian.pair_closed(sx, sy, t * t)
        _emit("pair", config | {"t": t}, {"value": value, "method": "closed_form"}, t0)
        return 0
    ex = gaussian_series(sx, cap=cfg.max_degree)
    ey = gaussian_series(sy, cap=cfg.max_degree)
    if args.method == "series":
        rep = pairing_1(ex, ey, cfg) if args.t is None else pairing_t(ex, ey, args.t, cfg)
    else:
        rep = abel_pairing(ex, ey, cfg)
    _emit("pair", config, rep, t0)
    return _verdict_exit(rep.verdict)


def _cmd_norm(args) -> int:
    t0 = time.perf_counter()
    cfg = _config_from_args(args)
    sz = _seed_from_file(args.z)
    config = {"method": args.method, "tolerance": cfg.tolerance, "max_degree": cfg.max_degree}
    if args.method == "closed":
        value = gaussian.norm_sq_closed(sz)
        _emit("norm", config, {"norm_sq": value, "method": "closed_form"}, t0)
        return 0
    ez = gaussian_series(sz, cap=cfg.max_degree)
    rep = pairing_1(ez, ez, cfg)
    _emit("norm", config, rep, t0)
    return _verdict_exit(rep.verdict)


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    checks = suites.run_suite(args.suite, args.seed)
    passed = all(c.passed for c in checks)
    _emit("verify", {"suite": args.suite, "seed": args.seed},
          {"checks": checks, "passed": passed}, t0)
    return 0 if passed else 1


def _cmd_takagi(args) -> int:
    t0 = time.perf_counter()
    zmap = antilinear.AntilinearSymmetricMap(load_matrix(args.z, "antilinear_symmetric"))
    fac = antilinear.takagi(zmap)
    recon = float(np.abs(fac.reconstruct() - zmap.matrix).max())
    unit = float(np.abs(fac.unitary.conj().T @ fac.unitary - np.eye(zmap.dim)).max())
    norm = max(0.0, float(fac.values[0]))  # the largest singular value; a zero map may read -0.0
    result = {
        "values": list(fac.values),
        "unitary": fac.unitary,
        "reconstruction_residual": recon,
        "unitarity_residual": unit,
        "operator_norm": norm,
        "siegel_membership": antilinear.siegel_class(norm),
    }
    _emit("takagi", {"file": args.z}, result, t0)
    return 0


def _cmd_detsqrt(args) -> int:
    t0 = time.perf_counter()
    mat = load_matrix(args.matrix)
    value = det_sqrt(mat)
    jump, continuation = segment_branch_check(mat)
    result = {
        "value": value,
        "square_identity_residual": abs(value * value - np.linalg.det(mat)),
        "max_segment_arg_jump": jump,
        "continuation_residual": continuation,
    }
    _emit("detsqrt", {"file": args.matrix}, result, t0)
    return 0


def _cmd_demo(args) -> int:
    t0 = time.perf_counter()
    if args.which == "sequence-noninvariance":
        before, after = sequence_noninvariance_demo()
        result = {"before_swap": before, "after_swap": after}
        _emit("demo", {"which": args.which}, result, t0)
        return 0 if (before.converged and after.converged) else 3
    ratios = divergence_demo(args.dim)
    expected = [(d + args.dim / 2.0) / (d + 1.0) for d in range(len(ratios))]
    result = {
        "ratios": ratios,
        "expected": expected,
        "max_deviation": max(abs(r - e) for r, e in zip(ratios, expected)),
    }
    _emit("demo", {"which": args.which, "dim": args.dim}, result, t0)
    return 0


def _add_series_flags(p) -> None:
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-degree", type=int, default=200)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fockpair", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("pair", help="pair two Gaussian elements")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--method", choices=("series", "closed", "abel"), required=True)
    p.add_argument("--t", type=float, default=None)
    _add_series_flags(p)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("norm", help="squared norm of a Gaussian element")
    p.add_argument("--z", required=True)
    p.add_argument("--method", choices=("series", "closed"), required=True)
    _add_series_flags(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=suites.SUITE_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("takagi", help="diagonalize an antilinear symmetric map")
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_takagi)

    p = sub.add_parser("detsqrt", help="holomorphic square-rooted determinant")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_detsqrt)

    p = sub.add_parser("demo", help="reproduce a counterexample computation")
    p.add_argument("which", choices=("sequence-noninvariance", "divergence"))
    p.add_argument("--dim", type=int, default=2)
    p.set_defaults(func=_cmd_demo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return 4
    except FockpairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
