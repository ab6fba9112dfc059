"""Integer-only skew compensation.

Given hardware clock i and the per-interval tick counts D (reference)
and A (local), the compensated clock is the nearest integer to i*D/A.
refine walks candidates y up from a candidate interval's lower bound in
halving strides decided by the Bresenham error term alone (slope
D/A < 1): adds, shifts and compares only, and no division unless the
interval missed, so no floating-point operation decides j.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import DEFAULT_EPS_COEFF, InvalidInput, _validate_estimate, candidate_interval
from .formats import resolve_format
from .rationals import round_ratio

__all__ = [
    "OverflowRisk",
    "RefineResult",
    "CompResult",
    "oracle_nearest",
    "refine",
    "compensate",
    "naive_compensate",
]

# intermediate products x * delta_b must stay inside 63 signed bits
_PRODUCT_LIMIT = 2**63
# records are built without the named tuples' own __new__, a second call
_new = tuple.__new__


class OverflowRisk(OverflowError):
    """x * delta_b would not fit the declared 63-bit product width."""


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


def oracle_nearest(i: int, D: int, A: int) -> int:
    """Exact nearest integer to i*D/A, ties rounding up."""
    _validate_estimate(i, D, A)
    return (2 * i * D + A) // (2 * A)


def refine(i: int, delta_a: int, delta_b: int, interval) -> RefineResult:
    """Round-half-up of i*delta_b/delta_a, walked up from the interval's lower bound.

    interval is a CandidateInterval or a plain (lb, ub) pair.  The walk
    keeps the Bresenham error term
    r = i*delta_b + floor(delta_a/2) - y*delta_a, for which y + 2^k is at
    most the clock exactly while r >= delta_a << k, and y is the clock
    exactly when 0 <= r < delta_a.  Starting at y = lb, it tries each
    stride 2^k from the largest not above the width down to 1 and takes
    it (y += 2^k, r -= delta_a << k) iff r >= delta_a << k, until y is
    the clock or the strides run out: adds, shifts and compares only, at
    most bit_length(width) strides.  The strides can pass ub, so the end
    is a miss iff y > ub or r is outside [0, delta_a): only then is the
    clock computed by one exact division, and bounds_violated is set, so
    a wrong interval never gives a wrong j.  iterations is the interval
    width, the ticks the walk covers.
    """
    lb, ub = interval[0], interval[1]
    if not type(i) is type(delta_a) is type(delta_b) is type(lb) is type(ub) is int:
        names = ", ".join(type(v).__name__ for v in (i, delta_a, delta_b, lb, ub))
        raise TypeError(f"need int i, delta_a, delta_b, lb, ub, got {names}")
    if not 0 <= delta_b < delta_a:
        raise InvalidInput(f"need 0 <= delta_b < delta_a, got delta_b={delta_b} delta_a={delta_a}")
    width = ub - lb
    if width < 0:
        raise InvalidInput(f"empty interval [{lb}, {ub}]")
    if width > i:
        raise InvalidInput(f"interval width {width} exceeds i={i}")
    b = i * delta_b
    if b + delta_a >= _PRODUCT_LIMIT:
        raise OverflowRisk(f"i*delta_b + delta_a = {b + delta_a} >= 2**63")

    y = lb
    r = b + delta_a // 2 - y * delta_a
    s = width.bit_length()
    stride, step = 1 << s >> 1, delta_a << s >> 1
    while r >= delta_a and stride:
        if r >= step:
            y += stride
            r -= step
        stride >>= 1
        step >>= 1
    if y > ub or not 0 <= r < delta_a:
        return _new(RefineResult, ((2 * b + delta_a) // (2 * delta_a), width, True))
    return _new(RefineResult, (y, width, False))


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
    interval wholly above i is walked as the one point [lb, lb] and misses.
    """
    if not type(i) is type(D) is type(A) is int or i < 0:
        # the int rule and i >= 0 here, so the error names the caller's D, not the remainder slope
        _validate_estimate(i, D, A)
    if D <= 0 or D >= 2 * A:  # which implies A > 0
        raise InvalidInput(f"need 0 < D < 2A, got D={D} A={A}")
    if D == A:
        # candidate_interval rejects what it rejects on the other slopes and gives the label
        label = candidate_interval(i, 0, A, method, precision, eps_coeff).precision
        return _new(CompResult, (i, 0, method, label, "identity", False))

    if D < A:
        delta_b, case, shift = D, "case1", 0
    else:
        delta_b, case, shift = D - A, "case2", i
    box = candidate_interval(i, delta_b, A, method, precision, eps_coeff)
    lb, ub, _, label = box
    if lb < 0 or ub > i:
        # refine needs width <= i and the clock satisfies 0 <= j <= i, so clipping
        # to [0, i] never drops the true value and the clipped interval misses
        # exactly when the full one does (approximate intervals can stick out
        # below 0 at tiny i, and lie wholly above i where t_hat's rounding error
        # passes their margin: those are clipped to the point [lb, lb], which
        # the walk reports as a miss in 0 iterations)
        lb = lb if lb > 0 else 0
        box = lb, (ub if ub < i else i if i > lb else lb)
    j, iterations, violated = refine(i, A, delta_b, box)
    return _new(CompResult, (j + shift, iterations, method, label, case, violated))


def naive_compensate(i: int, D: int, A: int, precision="binary32") -> int:
    """floor(i*D/A) with the ratio rounded once to the target precision.

    One correct rounding of the exact ratio, not the multi-step pipeline:
    the pipeline's accumulated error flips the floor even at i = 10^6
    (A = 10^6 - 1 lands 1e-6 above an integer, two extra roundings push
    the estimate below it), while a single rounding keeps the error
    inside half an ulp.
    """
    _validate_estimate(i, D, A)
    fmt = resolve_format(precision)
    num, den = round_ratio(i * D, A, fmt)
    return num // den
