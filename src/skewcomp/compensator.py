"""Integer-only skew compensation.

Given hardware clock i and the per-interval tick counts D (reference)
and A (local), the compensated clock is the nearest integer to i*D/A.
The refinement walks the candidate clock values up from the lower bound
of a candidate interval with Bresenham style integer updates: adds,
shifts and compares only, with no division unless the interval missed,
so no floating-point operation decides the result.  Strides of halving
powers of two keep the walk to at most about log2(width) + 3 steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import DEFAULT_EPS_COEFF, InvalidInput, _require_ints, candidate_interval
from .formats import resolve_format
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


class RefineResult(NamedTuple):
    j: int
    iterations: int
    bounds_violated: bool


class CompResult(NamedTuple):
    j: int
    iterations: int
    method: str
    precision: str
    case: str  # identity, case1, case2
    bounds_violated: bool


def _validate_ratio(i: int, D: int, A: int) -> None:
    if i < 0 or D <= 0 or A <= 0:
        raise InvalidInput(f"need i >= 0, D > 0, A > 0, got i={i} D={D} A={A}")
    _require_ints(i, D, A)


def oracle_nearest(i: int, D: int, A: int) -> int:
    """Exact nearest integer to i*D/A, ties rounding up."""
    _validate_ratio(i, D, A)
    return (2 * i * D + A) // (2 * A)


def refine(i: int, delta_a: int, delta_b: int, interval) -> RefineResult:
    """Round-half-up of i*delta_b/delta_a, walked up from the interval's lower bound.

    interval is a CandidateInterval or a plain (lb, ub) pair.  The state
    r = i*delta_b - y*delta_a - ceil(delta_a/2) is nonnegative exactly
    while y is below the clock, so y + 2^s is at most the clock exactly
    when r + delta_a >= delta_a << s.  Starting at y = lb, the walk
    tries each stride 2^s from the largest below the width down to 4 and
    takes it when that holds and y + 2^s <= ub; then it steps y += 1,
    r -= delta_a while y < ub and r >= 0, at most 3 times, and stops at
    the clock.  It uses adds, shifts and compares only, at most about
    log2(width) + 3 steps.  A miss is read from the state: r + delta_a < 0
    at the start means the clock is below lb, r >= 0 at the end means it
    is above ub.  Only then is the clock computed by one exact division,
    and bounds_violated is set, so a wrong interval never gives a wrong
    j.  iterations is the interval width, the ticks the walk covers.
    """
    lb, ub = interval[:2]
    if not 0 <= delta_b < delta_a:
        raise InvalidInput(f"need 0 <= delta_b < delta_a, got delta_b={delta_b} delta_a={delta_a}")
    width = ub - lb
    if width < 0:
        raise ValueError(f"empty interval [{lb}, {ub}]")
    if width > i:
        raise ValueError(f"interval width {width} exceeds i={i}")
    if i * delta_b + delta_a >= _PRODUCT_LIMIT:
        raise OverflowRisk(f"i*delta_b + delta_a = {i * delta_b + delta_a} >= 2**63")
    _require_ints(i, delta_b, delta_a)

    y = lb
    r = i * delta_b - y * delta_a - (delta_a + 1) // 2
    below = r + delta_a < 0
    if width > 3:
        s = width.bit_length() - 1
        stride, step = 1 << s, delta_a << s
        while stride > 3:
            if r + delta_a >= step and y + stride <= ub:
                y += stride
                r -= step
            stride >>= 1
            step >>= 1
    while y < ub and r >= 0:
        y += 1
        r -= delta_a
    # tuple.__new__ directly: the named tuple's own __new__ is a second call
    if below or r >= 0:
        return tuple.__new__(RefineResult, ((2 * i * delta_b + delta_a) // (2 * delta_a), width, True))
    return tuple.__new__(RefineResult, (y, width, False))


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
    round-half-up tie rule.  The walk starts at the lower bound of the
    candidate interval, clipped to [0, i], and divides only if that
    interval missed the clock, which bounds_violated reports.  An
    interval wholly outside [0, i] misses without a walk.
    """
    if i < 0:
        raise InvalidInput(f"need i >= 0, got {i}")
    if A <= 0 or D <= 0 or D >= 2 * A:
        raise SkewOutOfRange(f"need 0 < D < 2A, got D={D} A={A}")
    if D == A:
        # candidate_interval rejects what it rejects on the other slopes and
        # gives the label; its literal D = 0 would pass a float or bool D
        _require_ints(i, D, A)
        label = candidate_interval(i, 0, A, method, precision, eps_coeff).precision
        return tuple.__new__(CompResult, (i, 0, method, label, "identity", False))

    if D < A:
        delta_b, case, shift = D, "case1", 0
    else:
        delta_b, case, shift = D - A, "case2", i
    lb, ub, _, label = candidate_interval(i, delta_b, A, method, precision, eps_coeff)
    # refine needs width <= i and the clock satisfies 0 <= j <= i, so clipping
    # to [0, i] never drops the true value and the clipped interval misses
    # exactly when the full one does (approximate intervals can stick out
    # below 0 at tiny i, and lie wholly above i where t_hat's rounding error
    # passes their margin: clipped empty, they miss without a walk)
    lb = lb if lb > 0 else 0
    ub = ub if ub < i else i
    if lb > ub:
        j, iterations, violated = oracle_nearest(i, delta_b, A), 0, True
    else:
        j, iterations, violated = refine(i, A, delta_b, (lb, ub))
    return tuple.__new__(CompResult, (j + shift, iterations, method, label, case, violated))


def naive_compensate(i: int, D: int, A: int, precision="binary32") -> int:
    """floor(i*D/A) with the ratio rounded once to the target precision.

    One correct rounding of the exact ratio, not the multi-step pipeline:
    the pipeline's accumulated error flips the floor even at i = 10^6
    (A = 10^6 - 1 lands 1e-6 above an integer, two extra roundings push
    the estimate below it), while a single rounding keeps the error
    inside half an ulp.
    """
    _validate_ratio(i, D, A)
    fmt = resolve_format(precision)
    num, den = round_ratio(i * D, A, fmt)
    return num // den
