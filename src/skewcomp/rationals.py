"""Round-to-nearest emulation of a floating-point format on exact integer pairs.

Values are exact rationals throughout; floats only appear at the
hardware boundary.  The per-case paths hold them as plain integer
(numerator, denominator) pairs, so rounding and the floor/ceil of an
interval end off the binary32 hardware route are integer floor
divisions with no gcd normalization;
`fractions.Fraction` stays at the API boundary.  `round_ratio` emulates
an idealized IEEE-754 binary format with unbounded exponent (no
overflow, no subnormals), which is the model the error bounds are
proved against; `round_to_format` is its Fraction form.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

__all__ = [
    "round_ratio",
    "round_to_format",
    "is_in_format",
]

# the precision of each format label; formats builds its FORMATS from this table
_LABEL_PRECISIONS = {"binary32": 24, "binary64": 53}


def _unknown_format(fmt) -> ValueError:
    """The error of a format that is neither a FloatFormat nor a label."""
    return ValueError(f"unknown precision {fmt!r}; expected FloatFormat or one of {sorted(_LABEL_PRECISIONS)}")


def round_ratio(num: int, den: int, fmt) -> tuple[int, int]:
    """Round num/den (den > 0) to the nearest member of fmt's value set, ties to even.

    fmt is a FloatFormat, or a label such as "binary32", and supplies the
    integer `precision` p.  The emulated set is
    {0} union {M * 2**e : 2**(p-1) <= |M| < 2**p}, e unbounded.  Returns
    an unreduced pair (n, d), d > 0, with n/d equal to the rounded value.
    """
    if not type(num) is type(den) is int:
        raise TypeError(f"need int num, den, got {type(num).__name__}, {type(den).__name__}")
    if den <= 0:
        raise ValueError(f"need den > 0, got {den}")
    try:
        p = fmt.precision
    except AttributeError:  # a label, looked up here, as formats imports this module
        p = _LABEL_PRECISIONS.get(fmt)
        if p is None:
            raise _unknown_format(fmt) from None
    if num == 0:
        return 0, 1
    sign = 1
    if num < 0:
        sign, num = -1, -num
    # floor(log2(num/den)) is k or k - 1; shifts replace powers of 2
    k = num.bit_length() - den.bit_length()
    if (num >> k if k >= 0 else num << -k) < den:
        k -= 1
    e = k - (p - 1)
    if e >= 0:
        mant, rem = divmod(num, den << e)
        den <<= e
    else:
        mant, rem = divmod(num << -e, den)
    twice = 2 * rem
    if twice > den or (twice == den and mant & 1):
        mant += 1
    if e >= 0:
        return sign * (mant << e), 1
    return sign * mant, 1 << -e


def round_to_format(x: Rational, fmt) -> Fraction:
    """Round x to the nearest member of fmt's value set, ties to even.

    The exact Fraction form of round_ratio(x.numerator, x.denominator, fmt);
    x is an exact number under the rule of _exact.
    """
    x = _exact(x, "x")
    return Fraction(*round_ratio(x.numerator, x.denominator, fmt))


def is_in_format(x: Rational, fmt) -> bool:
    """True iff x, an exact number, is exactly representable in fmt (zero included)."""
    x = _exact(x, "x")
    return x == round_to_format(x, fmt)


def _exact(value, name: str) -> Fraction:
    """value, an int, Fraction or decimal or a/b string, as a Fraction; name is the argument's.

    A float carries its binary conversion error, a bool is a flag, not a
    number, and a numpy integer stays one inside the Fraction, where its
    products wrap, so all three raise TypeError like any type Fraction refuses.
    """
    if not isinstance(value, (float, bool)):
        try:
            exact = Fraction(value)
        except TypeError:
            pass
        except (ValueError, ZeroDivisionError, OverflowError) as exc:  # a bad string, "1/0", Decimal("inf")
            raise ValueError(f"{name} must be an exact number: {exc}") from None
        else:
            if type(exact.numerator) is type(exact.denominator) is int:
                return exact
    raise TypeError(f"{name} must be exact (int, Fraction or decimal string), got {value!r}")
