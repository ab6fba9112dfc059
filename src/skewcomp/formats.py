"""Floating-point format descriptions and optimal rounding-error bounds.

A format is a binary precision with an unbounded exponent range.
Bounds come in two flavors per operation: E1 is measured against the
exact value, E2 against the rounded value.  The optimal bounds are

    rounding, multiply:   E1 <= u/(1+u),          E2 <= u
    divide:               E1 <= u - 2u^2,         E2 <= (u-2u^2)/(1+u-2u^2)

with u the unit roundoff of the format.  error_budget collects the E1
bounds of the five stages of fl(fl(i) * fl(fl(D) / fl(A))); they define
the theoretical interval coefficients in bounds.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple

from .rationals import _LABEL_PRECISIONS, _exact, _unknown_format, round_to_format

__all__ = [
    "FloatFormat",
    "BINARY32",
    "BINARY64",
    "FORMATS",
    "resolve_format",
    "format_label",
    "unit_roundoff",
    "op_error_bound",
    "relative_errors",
    "ErrorBudget",
    "error_budget",
]


class FloatFormat(namedtuple("FloatFormat", "precision")):
    """Value set {0} union {M * 2**e : 2**(precision-1) <= |M| < 2**precision}."""

    __slots__ = ()

    def __new__(cls, precision: int):
        if type(precision) is not int:
            # a float, bool or numpy precision compares equal to an int one
            # but breaks the exact shifts and Fractions built from it
            raise TypeError(f"need an int precision, got {type(precision).__name__}")
        if precision < 2:
            raise ValueError(f"precision must be >= 2, got {precision}")
        return super().__new__(cls, precision)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would otherwise skip __new__'s check
        return cls(*iterable)


FORMATS = {name: FloatFormat(precision) for name, precision in _LABEL_PRECISIONS.items()}
BINARY32, BINARY64 = FORMATS["binary32"], FORMATS["binary64"]
_LABELS = {fmt: name for name, fmt in FORMATS.items()}


def resolve_format(precision) -> FloatFormat:
    """Accept a FloatFormat or one of the registered labels."""
    if isinstance(precision, FloatFormat):
        return precision
    try:
        return FORMATS[precision]
    except KeyError:
        raise _unknown_format(precision) from None


def format_label(fmt: FloatFormat) -> str:
    fmt = resolve_format(fmt)
    return _LABELS.get(fmt) or f"b2p{fmt.precision}"


def unit_roundoff(fmt: FloatFormat) -> Fraction:
    """u = 2**-precision, exactly."""
    return Fraction(1, 2 ** resolve_format(fmt).precision)


def op_error_bound(kind: str, which: str, fmt: FloatFormat) -> Fraction:
    """Optimal bound on the relative error of one correctly rounded operation.

    kind is one of "rounding", "multiply", "divide"; which is "E1" or "E2".
    """
    if kind not in ("rounding", "multiply", "divide"):
        raise ValueError(f"unknown operation kind {kind!r}")
    if which not in ("E1", "E2"):
        raise ValueError(f"unknown error measure {which!r}")
    u = unit_roundoff(fmt)
    if kind == "divide":
        e1 = u - 2 * u * u
        return e1 if which == "E1" else e1 / (1 + e1)
    return u / (1 + u) if which == "E1" else u


def relative_errors(t: Rational, fmt: FloatFormat) -> tuple[Fraction, Fraction]:
    """Realized (E1, E2) of rounding t, an exact number; (0, 0) at t = 0 by convention."""
    t = _exact(t, "t")
    fmt = resolve_format(fmt)
    if t == 0:
        return Fraction(0), Fraction(0)
    rounded = round_to_format(t, fmt)
    err = abs(t - rounded)
    # rounded == 0 would need t == 0: the exponent never underflows here
    return err / abs(t), err / abs(rounded)


class ErrorBudget(NamedTuple):
    """Per-stage E1 bounds for fl(fl(i) * fl(fl(D) / fl(A))).

    Stages: the three input roundings, the division, the multiplication.
    """

    round_i: Fraction
    round_d: Fraction
    round_a: Fraction
    divide: Fraction
    multiply: Fraction


def error_budget(fmt: FloatFormat) -> ErrorBudget:
    rounding = op_error_bound("rounding", "E1", fmt)
    return ErrorBudget(
        round_i=rounding,
        round_d=rounding,
        round_a=rounding,
        divide=op_error_bound("divide", "E1", fmt),
        multiply=op_error_bound("multiply", "E1", fmt),
    )
