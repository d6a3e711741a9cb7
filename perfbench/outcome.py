"""The one outcome classifier shared by every workload.

A verdict from the engine is judged against the oracle's Truth:

* `undecided` is never a failure; it is the engine's conservative answer.
* `converged` on a series with no sum (or no Abel limit) is a false
  convergence: the reported value is an antilimit.
* `divergent` on a series that converges is a false divergence.
* `converged` with a value further than the stated tolerance from the known
  answer is a wrong value.  The tolerance is relative for values above one.
"""

from __future__ import annotations

from dataclasses import dataclass

from oracle import Truth

CORRECT, UNDECIDED, FAILED = "correct", "undecided", "failed"


@dataclass(frozen=True)
class Judgement:
    status: str  # CORRECT | UNDECIDED | FAILED
    reason: str = ""
    wrong_verdict: bool = False


def within(value: complex, known: complex, tol: float) -> bool:
    return abs(complex(value) - complex(known)) <= tol * max(1.0, abs(known))


def judge(verdict: str, value, truth: Truth, tol: float) -> Judgement:
    """Classify one engine verdict (and its value) against the known answer."""
    if verdict == "undecided":
        return Judgement(UNDECIDED)
    if verdict == "converged":
        if not truth.converges:
            return Judgement(FAILED, "converged on a divergent series", wrong_verdict=True)
        if value is None or not within(value, truth.value, tol):
            return Judgement(FAILED, f"converged to {value}, known {truth.value}")
        return Judgement(CORRECT)
    if verdict == "divergent":
        if truth.converges:
            return Judgement(FAILED, "divergent on a convergent series", wrong_verdict=True)
        return Judgement(CORRECT)
    return Judgement(FAILED, f"unknown verdict {verdict!r}")


def check_value(value, known: complex, tol: float, what: str) -> Judgement:
    """Judge a value that carries no verdict, such as a closed form."""
    if value is not None and within(value, known, tol):
        return Judgement(CORRECT)
    return Judgement(FAILED, f"{what} = {value}, known {known}")


def check(ok: bool, reason: str) -> Judgement:
    """Judge a condition that must hold, such as an exit code or a residual."""
    return Judgement(CORRECT) if ok else Judgement(FAILED, reason)
