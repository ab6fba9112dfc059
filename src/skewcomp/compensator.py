"""Integer-only skew compensation.

Given hardware clock i and the per-interval tick counts D (reference)
and A (local), the compensated clock is the nearest integer to i*D/A.
The refinement walks the line y = x * delta_b / delta_a with Bresenham
style integer updates, starting inside a candidate interval, so no
floating-point operation decides the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import CandidateInterval, DEFAULT_EPS_COEFF, candidate_interval
from .formats import format_label, resolve_format
from .rationals import round_ratio

__all__ = [
    "OverflowRisk",
    "SkewOutOfRange",
    "RefineResult",
    "CompResult",
    "oracle_nearest",
    "refine",
    "compensate",
    "naive_compensate",
]

# intermediate products x * delta_b must stay inside 63 signed bits
_PRODUCT_LIMIT = 2**63


class OverflowRisk(OverflowError):
    """x * delta_b would not fit the declared 63-bit product width."""


class SkewOutOfRange(ValueError):
    """Compensation requires 0 < D < 2A."""


@dataclass(frozen=True)
class RefineResult:
    j: int
    iterations: int
    bounds_violated: bool


@dataclass(frozen=True)
class CompResult:
    j: int
    iterations: int
    method: str
    precision: str
    case: str  # identity, case1, case2
    bounds_violated: bool


def oracle_nearest(i: int, D: int, A: int) -> int:
    """Exact nearest integer to i*D/A, ties rounding up."""
    if i < 0 or D <= 0 or A <= 0:
        raise ValueError(f"need i >= 0, D > 0, A > 0, got i={i} D={D} A={A}")
    return (2 * i * D + A) // (2 * A)


def refine(i: int, delta_a: int, delta_b: int, interval) -> RefineResult:
    """Walk the line y = x*delta_b/delta_a from x = i - width up to x = i.

    interval is a CandidateInterval or a plain (lb, ub) pair.  The state
    r = x*delta_b - y*delta_a is kept in [-delta_a/2, delta_a/2) so y is
    always the round-half-up of the exact ordinate.  The starting y is
    first normalized onto the line; that correction is not counted, so
    iterations equals the number of x advances, i.e. the interval width.
    Normalization makes the result interval-independent: a wrong interval
    is reported through bounds_violated, not a wrong j.
    """
    if not isinstance(interval, CandidateInterval):
        lo, hi = interval
        interval = CandidateInterval(lo, hi, "caller", "unspecified")
    if not 0 <= delta_b < delta_a:
        raise ValueError(f"need 0 <= delta_b < delta_a, got delta_b={delta_b} delta_a={delta_a}")
    x = i - interval.width
    if x < 0:
        raise ValueError(f"interval width {interval.width} exceeds i={i}")
    if i * delta_b + delta_a >= _PRODUCT_LIMIT:
        raise OverflowRisk(f"i*delta_b + delta_a = {i * delta_b + delta_a} >= 2**63")

    # normalize y to the line at x (uncounted): y = round-half-up(x*db/da)
    y = (2 * x * delta_b + delta_a) // (2 * delta_a)
    r = x * delta_b - y * delta_a

    steps = i - x
    for _ in range(steps):
        r += delta_b
        if 2 * r >= delta_a:
            y += 1
            r -= delta_a

    violated = not interval.lb <= y <= interval.ub
    return RefineResult(j=y, iterations=steps, bounds_violated=violated)


def compensate(
    i: int,
    D: int,
    A: int,
    method: str = "practical",
    precision="binary32",
    eps_coeff=DEFAULT_EPS_COEFF,
) -> CompResult:
    """Skew-compensated clock j for hardware clock i, with 0 < D < 2A.

    D = A short-circuits to j = i.  D < A refines directly; D > A refines
    the remainder slope (D - A)/A and shifts by i, which is exact for the
    round-half-up tie rule.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    if A <= 0 or D <= 0 or D >= 2 * A:
        raise SkewOutOfRange(f"need 0 < D < 2A, got D={D} A={A}")
    label = format_label(resolve_format(precision))
    if D == A:
        return CompResult(i, 0, method, label, "identity", False)

    delta_b = D if D < A else D - A
    case = "case1" if D < A else "case2"
    interval = candidate_interval(i, delta_b, A, method, precision, eps_coeff)
    walk = interval
    # the walk start needs 0 <= i - width and the clock satisfies 0 <= j <= i,
    # so clipping to [0, i] never drops the true value (approximate intervals
    # can stick out below 0 at tiny i)
    if interval.lb < 0 or interval.ub > i:
        walk = CandidateInterval(
            max(interval.lb, 0), min(interval.ub, i), interval.method, interval.precision
        )
    result = refine(i, A, delta_b, walk)
    violated = not interval.lb <= result.j <= interval.ub
    j = result.j if case == "case1" else i + result.j
    return CompResult(j, result.iterations, method, label, case, violated)


def naive_compensate(i: int, D: int, A: int, precision="binary32") -> int:
    """floor(i*D/A) with the ratio rounded once to the target precision.

    One correct rounding of the exact ratio, not the multi-step pipeline:
    the pipeline's accumulated error flips the floor even at i = 10^6
    (A = 10^6 - 1 lands 1e-6 above an integer, two extra roundings push
    the estimate below it), while a single rounding keeps the error
    inside half an ulp.
    """
    if i < 0 or D <= 0 or A <= 0:
        raise ValueError(f"need i >= 0, D > 0, A > 0, got i={i} D={D} A={A}")
    fmt = resolve_format(precision)
    num, den = round_ratio(i * D, A, fmt)
    return num // den
