"""Candidate intervals for the skew-compensated clock.

The pipeline value is t_hat = fl(fl(i) * fl(fl(D) / fl(A))), the working
precision estimate of t = i*D/A.  Three interval constructions around
t_hat claim to bracket the true compensated clock:

    theoretical: floor/ceil of c_lo * t_hat, c_hi * t_hat with the exactly
        derived coefficients evaluated in working precision, the final
        products exact;
    practical:   same shape, with the looser but cheaply computable
        coefficients (1-u)/(1+2u)^3 and (1+2u)^3;
    approximate: floor/ceil of t_hat -/+ (1 + eps_hat), eps_hat = fl(eps_coeff * i).

The exact theoretical coefficients are the product of the per-stage
bounds in formats.error_budget; they are not restated here.  The
reference interval applies them to the exact t; it is what the
candidates are judged against.  The bracket is guaranteed for the exact
coefficients and the practical ones; theoretical coefficients rounded to
working precision, or too small an approximate margin, can miss, and
compensate reports the miss; certify gives the t from which the rounded
coefficients of a method can miss.

Every interval end is the floor or ceil of an exact product.  On the
binary32 hardware route, t_hat and the theoretical and practical
coefficients are binary32 values, so each product has at most 48 <= 53
significant bits and is exact as one binary64 multiply; the end is its
math.floor or math.ceil.  Everywhere else an end is one integer floor
division of (numerator, denominator) pairs: t_hat comes from
float.as_integer_ratio() on the binary64 hardware route and as a rounded
integer pair on the emulated route.  The coefficients, their integer
pairs and their float values are cached once per (method, precision).
The coefficient functions return Fractions.  The binary32 hardware route
runs on Python floats, each rounded to binary32 by a Veltkamp split, so
importing this module does not import numpy; D and A below 2^24 are
already binary32 values and are not rounded before their quotient.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple

from .formats import FloatFormat, error_budget, format_label, resolve_format, unit_roundoff
from .rationals import _exact, round_ratio, round_to_format

__all__ = [
    "InvalidInput",
    "CandidateInterval",
    "theoretical_coefficients",
    "rounded_coefficients",
    "Certificate",
    "certify",
    "clock_estimate",
    "emulated_clock_estimate",
    "candidate_interval",
    "reference_interval",
    "interval_deltas",
    "METHODS",
    "DEFAULT_EPS_COEFF",
]

METHODS = ("theoretical", "practical", "approximate")
DEFAULT_EPS_COEFF = Fraction(1, 10**7)

# int -> binary64 -> binary32 is a single correct rounding below this
_HW_EXACT_INT = 2**53
# every int below this is a binary32 value
_B32_EXACT_INT = 2**24
# Veltkamp split: with c = x * _SPLIT32, c - (c - x) is the binary64 x rounded
# to 53 - 29 = 24 bits, to nearest, ties to even; every value rounded here is
# 0 or in [2^-53, 2^106], far from binary64 overflow and binary32's subnormals
_SPLIT32 = 2.0**29 + 1
# records are built without the named tuples' own __new__, a second call
_new = tuple.__new__


def _on_hardware_route(fmt, m: int) -> bool:
    """Whether t_hat runs on hardware floats, not emulated, when m is its largest input."""
    return fmt.precision in (24, 53) and m < _HW_EXACT_INT


class InvalidInput(ValueError):
    """A value an (i, D, A) function or the walk rejects: i >= 0, D >= 0 and
    A > 0; D < A for an interval or the walk, 0 < D < 2A for compensate; a
    walk interval that is nonempty and no wider than i."""


class CandidateInterval(NamedTuple):
    """Integer range [lb, ub] claimed to contain the clock; guaranteed for
    the reference and practical methods, not the theoretical or approximate."""

    lb: int
    ub: int
    method: str
    precision: str

    @property
    def width(self) -> int:
        return self.ub - self.lb


# typed: the plain tuple (24,) hashes and compares equal to BINARY32, and resolve_format must still reject it
@functools.lru_cache(maxsize=None, typed=True)
def theoretical_coefficients(fmt: FloatFormat) -> tuple[Fraction, Fraction]:
    """Exact bracket coefficients: c_lo * t <= t_hat <= c_hi * t.

    Tightest product of the five per-stage optimal bounds of the pipeline:
    fl(A) sits in the denominator, so its bound enters inverted.
    """
    b = error_budget(resolve_format(fmt))
    c_lo = (1 - b.round_i) * (1 - b.round_d) * (1 - b.divide) * (1 - b.multiply) / (1 + b.round_a)
    c_hi = (1 + b.round_i) * (1 + b.round_d) * (1 + b.divide) * (1 + b.multiply) / (1 - b.round_a)
    return c_lo, c_hi


@functools.lru_cache(maxsize=None, typed=True)
def rounded_coefficients(method: str, fmt: FloatFormat) -> tuple[Fraction, Fraction]:
    """Coefficients as evaluated in working precision, as exact values.

    Every operand and every intermediate is rounded to fmt, mirroring a
    float implementation.  The evaluation order is fixed so results are
    reproducible: numerator first, one division last.
    """
    fmt = resolve_format(fmt)
    u = unit_roundoff(fmt)
    rtf = lambda q: round_to_format(q, fmt)
    one_minus = rtf(1 - u)  # exact: (2^p - 1) * 2^-p
    w = rtf(1 + 2 * u)  # exact: (2^(p-1) + 1) * 2^(1-p)
    cube = rtf(rtf(w * w) * w)
    if method == "practical":
        return rtf(one_minus / cube), cube
    if method == "theoretical":
        two_usq = rtf(2 * rtf(u * u))
        one_plus = rtf(1 + u)  # rounds to 1: the tie 1 + u goes to the even side
        sq = rtf(one_plus * one_plus)
        n_lo = rtf(one_minus + two_usq)
        d_lo = rtf(sq * w)
        c_lo = rtf(n_lo / d_lo)
        n_hi = rtf(cube * rtf(one_plus - two_usq))
        c_hi = rtf(n_hi / sq)
        return c_lo, c_hi
    if method == "approximate":
        raise ValueError(f"no working-precision coefficients for method {method!r}")
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


class Certificate(NamedTuple):
    """certify's slacks, and the onset of each failing side (None where it holds)."""

    lower_slack: Fraction
    upper_slack: Fraction
    lower_onset: Fraction | None
    upper_onset: Fraction | None


def certify(method: str, fmt: FloatFormat) -> Certificate:
    """Whether floor(lo * t_hat) <= round(t) <= ceil(hi * t_hat) for every input.

    (lo, hi) are the rounded coefficients and (c_lo, c_hi) the exact
    bracket, c_lo * t <= t_hat <= c_hi * t.  So lo * t_hat is at most
    t * (1 + lo*c_hi - 1) and hi * t_hat at least t * (1 + hi*c_lo - 1):
    a lower slack lo*c_hi - 1 <= 0 and an upper slack hi*c_lo - 1 >= 0
    keep the clock inside for every t.  A side whose slack s has the wrong
    sign moves its end by at most |s| * t, under 1/2 below the onset
    1/(2|s|), so it can miss only at t >= onset.  Sufficient, not tight.
    """
    lo, hi = rounded_coefficients(method, fmt)
    c_lo, c_hi = theoretical_coefficients(fmt)
    lower, upper = lo * c_hi - 1, hi * c_lo - 1
    return Certificate(
        lower, upper, 1 / (2 * lower) if lower > 0 else None, -1 / (2 * upper) if upper < 0 else None
    )


def _require_ints(i, D, A) -> None:
    # a float, bool or numpy integer would run the exact integer arithmetic
    # in another type and can give a wrong clock
    if not type(i) is type(D) is type(A) is int:
        raise TypeError(f"need int i, D, A, got {type(i).__name__}, {type(D).__name__}, {type(A).__name__}")


def _validate_estimate(i: int, D: int, A: int) -> None:
    """The input rule of every (i, D, A) function but compensate: signs, then exact ints."""
    if i < 0 or D < 0 or A <= 0:
        raise InvalidInput(f"need i, D, A >= 0 and A > 0, got i={i} D={D} A={A}")
    _require_ints(i, D, A)


def _validate_inputs(i: int, D: int, A: int) -> None:
    _validate_estimate(i, D, A)
    if D >= A:
        raise InvalidInput(f"need D < A after decomposition, got D={D} A={A}")


def clock_estimate(i: int, D: int, A: int, precision="binary32") -> float:
    """Working-precision t_hat = fl(fl(i) * fl(fl(D) / fl(A))) on hardware.

    binary64 runs on the native float.  binary32 runs on binary64 floats,
    each result rounded to binary32: the product of two binary32 values is
    exact in binary64, and the binary64 quotient of two binary32 values
    rounds to the correctly rounded binary32 quotient because 53 >= 2*24 + 2
    (Figueroa 1995).  Both are therefore correctly rounded per operation,
    which the emulated pipeline cross-checks.  Other formats have no
    hardware path whatever the inputs; binary32 and binary64 inputs of
    2^53 or more fall back to the emulated route.
    """
    _validate_estimate(i, D, A)
    fmt = resolve_format(precision)
    if _on_hardware_route(fmt, max(i, D, A)):
        return _hardware_estimate(i, D, A, fmt)
    if _on_hardware_route(fmt, 0):  # binary32 or binary64, an input of 2^53 or more
        return float(emulated_clock_estimate(i, D, A, fmt))
    raise ValueError(f"no hardware path for {fmt}; use emulated_clock_estimate")


def _hardware_estimate(i: int, D: int, A: int, fmt: FloatFormat) -> float:
    """clock_estimate for checked inputs on the hardware route.

    binary32 rounds D and A only when one is 2^24 or more: D / A of ints
    below 2^24 is already the binary64 quotient of binary32 values.
    """
    if fmt.precision == 53:
        return float(i) * (float(D) / float(A))
    # each split is written out: a helper call per rounding costs about what it saves
    if D >= _B32_EXACT_INT or A >= _B32_EXACT_INT:
        c = D * _SPLIT32
        D = c - (c - D)
        c = A * _SPLIT32
        A = c - (c - A)
    c = i * _SPLIT32
    i = c - (c - i)
    q = D / A
    c = q * _SPLIT32
    q = c - (c - q)
    t = i * q
    c = t * _SPLIT32
    return c - (c - t)


def emulated_clock_estimate(i: int, D: int, A: int, precision="binary32") -> Fraction:
    """Same pipeline via round_ratio; exact value of the final float."""
    _validate_estimate(i, D, A)
    fmt = resolve_format(precision)
    return Fraction(*_emulated_ratio(i, D, A, fmt))


def _emulated_ratio(i: int, D: int, A: int, fmt: FloatFormat) -> tuple[int, int]:
    """The emulated t_hat of checked inputs as an unreduced (numerator, denominator > 0) pair."""
    i_n, i_d = round_ratio(i, 1, fmt)
    d_n, d_d = round_ratio(D, 1, fmt)
    a_n, a_d = round_ratio(A, 1, fmt)
    q_n, q_d = round_ratio(d_n * a_d, d_d * a_n, fmt)
    return round_ratio(i_n * q_n, i_d * q_d, fmt)


def _eps_hat(eps_coeff, i: int, fmt: FloatFormat) -> tuple[int, int]:
    """eps_hat = fl(eps_coeff * i) as an unreduced (numerator, denominator > 0) pair."""
    eps = _exact(eps_coeff, "eps_coeff")
    if eps < 0:
        raise ValueError(f"need eps_coeff >= 0, got {eps}")
    return round_ratio(eps.numerator * i, eps.denominator, fmt)


class _Plans(dict):
    """The per-(method, precision) part of candidate_interval, built on first lookup.

    The key is (method, precision, type(precision)); the value is
    (fmt, label, hardware, ratios, floats): hardware says whether the
    format has a hardware route; ratios are the coefficients as
    (lo_num, lo_den, hi_num, hi_den), None for the approximate method;
    floats are them as (lo, hi) floats where a product of two values of
    the format is exact in binary64, else None.  The key holds the
    precision's type: the plain tuple (24,) hashes and compares equal to
    BINARY32, and resolve_format must still reject it.
    """

    def __missing__(self, key):
        method, precision, _ = key
        fmt = resolve_format(precision)
        ratios = floats = None
        if method != "approximate":  # rounded_coefficients rejects an unknown method
            lo, hi = rounded_coefficients(method, fmt)
            ratios = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            # two p-bit significands multiply to at most 2p bits
            floats = (float(lo), float(hi)) if 2 * fmt.precision <= 53 else None
        plan = self[key] = (fmt, format_label(fmt), _on_hardware_route(fmt, 0), ratios, floats)
        return plan


_PLANS = _Plans()


def candidate_interval(
    i: int,
    D: int,
    A: int,
    method: str = "practical",
    precision="binary32",
    eps_coeff=DEFAULT_EPS_COEFF,
) -> CandidateInterval:
    """Integer interval for the compensated clock from the t_hat pipeline.

    Callers pass the decomposed slope: 0 <= D < A.  D = 0 yields the
    degenerate interval around t = 0.
    """
    # the rules of _validate_inputs, tested inline; a broken one raises its error there
    if i < 0 or D < 0 or A <= 0 or D >= A or not type(i) is type(D) is type(A) is int:
        _validate_inputs(i, D, A)
    fmt, label, hardware, ratios, floats = _PLANS[method, precision, type(precision)]
    # t_hat = tn / td exactly; D < A, so max(i, A) is the largest input
    if hardware and (i if i > A else A) < _HW_EXACT_INT:
        t_hat = _hardware_estimate(i, D, A, fmt)
        if floats is not None:
            # binary32 t_hat and coefficients: each product is exact in
            # binary64, so its floor/ceil is that of the exact product
            lo, hi = floats
            return _new(CandidateInterval, (floor(lo * t_hat), ceil(hi * t_hat), method, label))
        tn, td = t_hat.as_integer_ratio()
    else:
        tn, td = _emulated_ratio(i, D, A, fmt)
    if ratios is not None:
        lo_n, lo_d, hi_n, hi_d = ratios
        # floor/ceil of the exact products: re-rounding c_hi * t_hat to the
        # working grid can pull the upper bound a few integers under the
        # guarantee near t ~ 1e8 (grid spacing 8), so the last multiply is
        # kept exact and only the coefficients live on the float grid
        lb = (lo_n * tn) // (lo_d * td)
        ub = -((-hi_n * tn) // (hi_d * td))
    else:
        # eps_hat = en / ed, so t_hat -/+ (1 + eps_hat) is over td * ed
        en, ed = _eps_hat(eps_coeff, i, fmt)
        mid, margin, den = tn * ed, td * (ed + en), td * ed
        # the margin is applied exactly: rounding t_hat -/+ margin again in
        # working precision would quantize the interval ends to the float
        # grid (64 at t ~ 1e9 in binary32) and inflate the interval
        lb = (mid - margin) // den
        ub = -((-mid - margin) // den)
    return _new(CandidateInterval, (lb, ub, method, label))


def reference_interval(i: int, D: int, A: int, precision="binary32") -> CandidateInterval:
    """Theoretical interval evaluated on the exact t = i*D/A.

    precision, a FloatFormat or a label, selects whose unit roundoff the
    coefficients use; the arithmetic itself is exact.
    """
    _validate_inputs(i, D, A)
    fmt = resolve_format(precision)
    lo, hi = theoretical_coefficients(fmt)
    tn = i * D  # t = tn / A
    lb = (lo.numerator * tn) // (lo.denominator * A)
    ub = -((-hi.numerator * tn) // (hi.denominator * A))
    return _new(CandidateInterval, (lb, ub, "reference", "exact"))


def interval_deltas(
    candidate: CandidateInterval, reference: CandidateInterval
) -> tuple[int, int]:
    """(reference.lb - candidate.lb, candidate.ub - reference.ub).

    A positive value means the candidate is wider than the reference on that
    side, a negative one tighter; only compensate's bounds_violated reports a miss.
    """
    return reference.lb - candidate.lb, candidate.ub - reference.ub
