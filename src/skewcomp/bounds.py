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
compensate reports the miss.

Every interval end is the floor or ceil of an exact product, computed as
one integer floor division of (numerator, denominator) pairs: t_hat comes
from float.as_integer_ratio() on the hardware route and as a rounded
integer pair on the emulated route, and the coefficients are cached as
integer pairs.  The coefficient functions return Fractions.  The binary32
hardware route runs on Python floats rounded through struct, so importing
this module does not import numpy.
"""

from __future__ import annotations

import functools
import struct
from fractions import Fraction
from typing import NamedTuple

from .formats import BINARY32, FloatFormat, error_budget, format_label, resolve_format, unit_roundoff
from .rationals import round_ratio, round_to_format

__all__ = [
    "ZeroDivisor",
    "InvalidInput",
    "CandidateInterval",
    "theoretical_coefficients",
    "rounded_coefficients",
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
# packing a float as "f" rounds it to binary32, to nearest, ties to even
_BINARY32 = struct.Struct("f")
_BINARY32_TRIPLE = struct.Struct("3f")


def _on_hardware_route(fmt, m: int) -> bool:
    """Whether t_hat runs on hardware floats, not emulated, when m is its largest input."""
    return fmt.precision in (24, 53) and m < _HW_EXACT_INT


class ZeroDivisor(ZeroDivisionError):
    """A = 0 in the clock ratio D/A."""


class InvalidInput(ValueError):
    """An input breaks its sign or slope rule: i >= 0, D and A >= 0 (> 0 for a
    ratio), and a slope below 1 (D < A) for an interval or the walk."""


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


@functools.lru_cache(maxsize=None)
def theoretical_coefficients(fmt: FloatFormat) -> tuple[Fraction, Fraction]:
    """Exact bracket coefficients: c_lo * t <= t_hat <= c_hi * t.

    Tightest product of the five per-stage optimal bounds of the pipeline:
    fl(A) sits in the denominator, so its bound enters inverted.
    """
    b = error_budget(fmt)
    c_lo = (1 - b.round_i) * (1 - b.round_d) * (1 - b.divide) * (1 - b.multiply) / (1 + b.round_a)
    c_hi = (1 + b.round_i) * (1 + b.round_d) * (1 + b.divide) * (1 + b.multiply) / (1 - b.round_a)
    return c_lo, c_hi


@functools.lru_cache(maxsize=None)
def rounded_coefficients(method: str, fmt: FloatFormat) -> tuple[Fraction, Fraction]:
    """Coefficients as evaluated in working precision, as exact values.

    Every operand and every intermediate is rounded to fmt, mirroring a
    float implementation.  The evaluation order is fixed so results are
    reproducible: numerator first, one division last.
    """
    u = unit_roundoff(fmt)
    rtf = lambda q: round_to_format(q, fmt)
    one_minus = rtf(1 - u)  # exact: (2^p - 1) * 2^-p
    w = rtf(1 + 2 * u)  # exact: (2^(p-1) + 1) * 2^(1-p)
    if method == "practical":
        c_hi = rtf(rtf(w * w) * w)
        c_lo = rtf(one_minus / c_hi)
        return c_lo, c_hi
    if method == "theoretical":
        two_usq = rtf(2 * rtf(u * u))
        one_plus = rtf(1 + u)  # rounds to 1: the tie 1 + u goes to the even side
        sq = rtf(one_plus * one_plus)
        n_lo = rtf(one_minus + two_usq)
        d_lo = rtf(sq * w)
        c_lo = rtf(n_lo / d_lo)
        cube = rtf(rtf(w * w) * w)
        n_hi = rtf(cube * rtf(one_plus - two_usq))
        c_hi = rtf(n_hi / sq)
        return c_lo, c_hi
    raise ValueError(f"no working-precision coefficients for method {method!r}")


def _require_ints(i, D, A) -> None:
    # a float, bool or numpy integer would run the exact integer arithmetic
    # in another type and can give a wrong clock
    if not type(i) is type(D) is type(A) is int:
        raise TypeError(f"need int i, D, A, got {type(i).__name__}, {type(D).__name__}, {type(A).__name__}")


def _validate_estimate(i: int, D: int, A: int) -> None:
    """The pipeline's input rules, in order: A != 0, signs, then exact ints."""
    if A == 0:
        raise ZeroDivisor("A = 0")
    if i < 0 or D < 0 or A < 0:
        raise InvalidInput(f"need i, D, A >= 0, got i={i} D={D} A={A}")
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
    fmt = resolve_format(precision)
    _validate_estimate(i, D, A)
    if _on_hardware_route(fmt, max(i, D, A)):
        return _hardware_estimate(i, D, A, fmt)
    if _on_hardware_route(fmt, 0):  # binary32 or binary64, an input of 2^53 or more
        return float(emulated_clock_estimate(i, D, A, fmt))
    raise ValueError(f"no hardware path for {fmt}; use emulated_clock_estimate")


def _hardware_estimate(i: int, D: int, A: int, fmt: FloatFormat) -> float:
    """clock_estimate for checked inputs on the hardware route."""
    if fmt.precision == 53:
        return float(i) * (float(D) / float(A))
    i32, d32, a32 = _BINARY32_TRIPLE.unpack(_BINARY32_TRIPLE.pack(i, D, A))
    pack, unpack = _BINARY32.pack, _BINARY32.unpack
    return unpack(pack(i32 * unpack(pack(d32 / a32))[0]))[0]


def emulated_clock_estimate(i: int, D: int, A: int, fmt) -> Fraction:
    """Same pipeline via round_ratio; exact value of the final float."""
    fmt = resolve_format(fmt)
    _validate_estimate(i, D, A)
    return Fraction(*_emulated_ratio(i, D, A, fmt))


def _emulated_ratio(i: int, D: int, A: int, fmt: FloatFormat) -> tuple[int, int]:
    """The emulated t_hat of checked inputs as an unreduced (numerator, denominator > 0) pair."""
    i_n, i_d = round_ratio(i, 1, fmt)
    d_n, d_d = round_ratio(D, 1, fmt)
    a_n, a_d = round_ratio(A, 1, fmt)
    q_n, q_d = round_ratio(d_n * a_d, d_d * a_n, fmt)
    return round_ratio(i_n * q_n, i_d * q_d, fmt)


@functools.lru_cache(maxsize=None)
def _integer_ratios(coefficients, *args) -> tuple[int, int, int, int]:
    """coefficients(*args) as (lo_num, lo_den, hi_num, hi_den)."""
    c_lo, c_hi = coefficients(*args)
    return c_lo.numerator, c_lo.denominator, c_hi.numerator, c_hi.denominator


def _eps_hat(eps_coeff, i: int, fmt: FloatFormat) -> tuple[int, int]:
    """eps_hat = fl(eps_coeff * i) as an unreduced (numerator, denominator > 0) pair."""
    if isinstance(eps_coeff, float):
        # a float carries its binary conversion error into the margin
        raise TypeError(f"eps_coeff must be exact (int, Fraction or decimal string), got {eps_coeff!r}")
    eps = Fraction(eps_coeff)
    if eps < 0:
        raise ValueError(f"need eps_coeff >= 0, got {eps}")
    return round_ratio(eps.numerator * i, eps.denominator, fmt)


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
    _validate_inputs(i, D, A)
    fmt = resolve_format(precision)
    # t_hat = tn / td exactly; D < A, so max(i, A) is the largest input
    if _on_hardware_route(fmt, i if i > A else A):
        tn, td = _hardware_estimate(i, D, A, fmt).as_integer_ratio()
    else:
        tn, td = _emulated_ratio(i, D, A, fmt)
    if method in ("theoretical", "practical"):
        lo_n, lo_d, hi_n, hi_d = _integer_ratios(rounded_coefficients, method, fmt)
        # floor/ceil of the exact products: re-rounding c_hi * t_hat to the
        # working grid can pull the upper bound a few integers under the
        # guarantee near t ~ 1e8 (grid spacing 8), so the last multiply is
        # kept exact and only the coefficients live on the float grid
        lb = (lo_n * tn) // (lo_d * td)
        ub = -((-hi_n * tn) // (hi_d * td))
    elif method == "approximate":
        # eps_hat = en / ed, so t_hat -/+ (1 + eps_hat) is over td * ed
        en, ed = _eps_hat(eps_coeff, i, fmt)
        mid, margin, den = tn * ed, td * (ed + en), td * ed
        # the margin is applied exactly: rounding t_hat -/+ margin again in
        # working precision would quantize the interval ends to the float
        # grid (64 at t ~ 1e9 in binary32) and inflate the interval
        lb = (mid - margin) // den
        ub = -((-mid - margin) // den)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    return tuple.__new__(CandidateInterval, (lb, ub, method, format_label(fmt)))


def reference_interval(i: int, D: int, A: int, fmt=BINARY32) -> CandidateInterval:
    """Theoretical interval evaluated on the exact t = i*D/A.

    fmt, a FloatFormat or a label, selects whose unit roundoff the
    coefficients use; the arithmetic itself is exact.
    """
    fmt = resolve_format(fmt)
    _validate_inputs(i, D, A)
    lo_n, lo_d, hi_n, hi_d = _integer_ratios(theoretical_coefficients, fmt)
    tn = i * D  # t = tn / A
    lb = (lo_n * tn) // (lo_d * A)
    ub = -((-hi_n * tn) // (hi_d * A))
    return tuple.__new__(CandidateInterval, (lb, ub, "reference", "exact"))


def interval_deltas(
    candidate: CandidateInterval, reference: CandidateInterval
) -> tuple[int, int]:
    """(reference.lb - candidate.lb, candidate.ub - reference.ub).

    Positive values mean the candidate is conservative; a negative value
    means it violated the guaranteed bound on that side.
    """
    return reference.lb - candidate.lb, candidate.ub - reference.ub
