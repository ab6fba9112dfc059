"""Round-to-nearest emulation of a floating-point format on exact integer pairs.

Values are exact rationals throughout; floats only appear at the
hardware boundary.  The per-case paths hold them as plain integer
(numerator, denominator) pairs, so rounding and the floor/ceil of an
interval end are integer floor divisions with no gcd normalization;
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


def _ilog(num: int, den: int, base: int) -> int:
    """floor(log_base(num/den)) for positive num, den; round_ratio does base 2 itself."""
    # exact integer walk; cheap at the magnitudes used here
    k = 0
    if num >= den:
        while num >= den * base:
            den *= base
            k += 1
        return k
    while num < den:
        num *= base
        k -= 1
    return k


def round_ratio(num: int, den: int, fmt) -> tuple[int, int]:
    """Round num/den (den > 0) to the nearest member of fmt's value set, ties to even.

    fmt is anything exposing integer attributes `base` and `precision`.
    The emulated set is {0} union {M * base**e : base**(p-1) <= |M| < base**p},
    e unbounded.  Returns an unreduced pair (n, d), d > 0, with n/d equal
    to the rounded value.
    """
    if num == 0:
        return 0, 1
    beta, p = fmt.base, fmt.precision
    sign = 1
    if num < 0:
        sign, num = -1, -num
    if beta == 2:
        # floor(log2(num/den)) is k or k - 1; shifts replace powers of the base
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

    # exponent e such that beta**(p-1) <= (num/den) / beta**e < beta**p
    e = _ilog(num, den, beta) - (p - 1)

    # scale so the significand is scaled_num/scaled_den, then round to int
    scale = beta ** abs(e)
    if e >= 0:
        scaled_num, scaled_den = num, den * scale
    else:
        scaled_num, scaled_den = num * scale, den
    mant, rem = divmod(scaled_num, scaled_den)
    twice = 2 * rem
    if twice > scaled_den or (twice == scaled_den and mant & 1):
        mant += 1
    # a carry to beta**p stays representable as beta**(p-1) * beta**(e+1)

    if e >= 0:
        return sign * mant * scale, 1
    return sign * mant, scale


def round_to_format(x: Rational, fmt) -> Fraction:
    """Round x to the nearest member of fmt's value set, ties to even.

    The exact Fraction form of round_ratio(x.numerator, x.denominator, fmt).
    """
    return Fraction(*round_ratio(x.numerator, x.denominator, fmt))


def is_in_format(x: Rational, fmt) -> bool:
    """True iff x is exactly representable in fmt (zero included)."""
    return x == round_to_format(x, fmt)
