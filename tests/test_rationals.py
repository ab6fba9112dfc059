"""The round-to-nearest-even emulation."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewcomp.formats import BINARY32, BINARY64, FloatFormat, unit_roundoff
from skewcomp.rationals import is_in_format, round_ratio, round_to_format

P11 = FloatFormat(11)


def test_round_tenth_binary32():
    # 1/10 is not a binary fraction; its nearest 24-bit significand is known
    assert round_to_format(Fraction(1, 10), BINARY32) == Fraction(13421773, 134217728)


def test_tie_rounds_to_even_significand():
    u = unit_roundoff(BINARY32)
    # 1 + u sits exactly between 1 and 1 + 2u; the even side is 1
    assert round_to_format(1 + u, BINARY32) == 1
    # 1 + 3u sits between 1 + 2u and 1 + 4u; the even side is 1 + 4u
    assert round_to_format(1 + 3 * u, BINARY32) == 1 + 4 * u


def test_round_zero_and_sign_symmetry():
    assert round_to_format(Fraction(0), BINARY32) == 0
    for q in (Fraction(1, 10), Fraction(355, 113), Fraction(1, 3)):
        assert round_to_format(-q, BINARY32) == -round_to_format(q, BINARY32)


def test_round_exact_values_pass_through():
    for q in (Fraction(1), Fraction(3, 4), Fraction(2**24 - 1), Fraction(5, 2**30)):
        assert round_to_format(q, BINARY32) == q
        assert is_in_format(q, BINARY32)


def test_is_in_format_boundaries():
    # 2^24 + 1 needs 25 significand bits
    assert is_in_format(Fraction(2**24), BINARY32)
    assert not is_in_format(Fraction(2**24 + 1), BINARY32)
    assert is_in_format(Fraction(2**24 + 2), BINARY32)


def _neighbors(q: Fraction, fmt: FloatFormat):
    """Enclosing format values via an independent exponent search.

    The exponent comes from float log2 and is corrected by comparison, so
    this does not share code with the implementation's integer log.
    """
    assert q > 0
    e = int(math.floor(math.log2(float(q)))) - fmt.precision + 1
    lo = 2 ** (fmt.precision - 1)
    hi = 2**fmt.precision
    while q / Fraction(2) ** e >= hi:
        e += 1
    while q / Fraction(2) ** e < lo:
        e -= 1
    scaled = q / Fraction(2) ** e
    below = Fraction(math.floor(scaled), 1) * Fraction(2) ** e
    above = Fraction(math.ceil(scaled), 1) * Fraction(2) ** e
    return below, above


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_rounding_picks_nearest_neighbor(num, den):
    q = Fraction(num, den)
    r = round_to_format(q, BINARY32)
    below, above = _neighbors(q, BINARY32)
    assert r in (below, above)
    # nearest: neither enclosing value is strictly closer
    assert abs(r - q) <= abs(below - q)
    assert abs(r - q) <= abs(above - q)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**12),
)
def test_rounding_idempotent_and_bounded(num, den):
    q = Fraction(num, den)
    u = unit_roundoff(BINARY32)
    r = round_to_format(q, BINARY32)
    assert round_to_format(r, BINARY32) == r
    assert abs(r - q) <= u / (1 + u) * q  # optimal E1 bound


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
def test_binary64_floats_are_fixed_points(x):
    assert round_to_format(Fraction(x), BINARY64) == Fraction(x)


def test_matches_hardware_float32():
    import numpy as np

    import random

    rng = random.Random(99)
    for _ in range(2000):
        x = rng.uniform(1e-6, 1e9)
        assert round_to_format(Fraction(x), BINARY32) == Fraction(float(np.float32(x)))


def _nearest_base2(q: Fraction, p: int) -> Fraction:
    """Nearest p-bit binary value to q > 0, ties to even, from the definition."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    while Fraction(2) ** e > q:
        e -= 1
    while Fraction(2) ** (e + 1) <= q:
        e += 1
    ulp = Fraction(2) ** (e - p + 1)
    m = q / ulp  # in [2^(p-1), 2^p)
    lower = math.floor(m)
    half = m - lower - Fraction(1, 2)
    return (lower + (half > 0 or (half == 0 and lower % 2 == 1))) * ulp


@st.composite
def _base2_ratios(draw):
    p = draw(st.sampled_from((11, 24, 53)))
    shift = draw(st.integers(min_value=0, max_value=40))
    kind = draw(st.sampled_from(("any", "tie", "carry")))
    if kind == "tie":  # a significand of p bits plus exactly one half
        num = (2 * draw(st.integers(min_value=2 ** (p - 1), max_value=2**p - 1)) + 1) << shift
    elif kind == "carry":  # p + k one bits round up to 2^(p + k)
        num = (2 ** (p + draw(st.integers(min_value=1, max_value=3))) - 1) << shift
    else:
        num = draw(st.integers(min_value=1, max_value=2**120))
    # a power of two scales without touching the significand; 2^k > num
    # gives a negative exponent
    den = draw(
        st.sampled_from((1,))
        | st.integers(min_value=0, max_value=160).map(lambda k: 2**k)
        | st.integers(min_value=1, max_value=2**90)
    )
    # a common odd factor keeps the value, ties included, but makes the
    # denominator a power of two no longer
    odd = draw(st.sampled_from((1, 1, 3, 10**6 + 1)))
    return p, num * odd, den * odd


@settings(max_examples=300, deadline=None)
@given(ratio=_base2_ratios(), sign=st.sampled_from((1, -1)))
def test_round_ratio_base2_matches_definition(ratio, sign):
    p, num, den = ratio
    n, d = round_ratio(sign * num, den, FloatFormat(p))
    assert d > 0
    assert Fraction(n, d) == sign * _nearest_base2(Fraction(num, den), p)


def test_round_ratio_base2_keeps_representable_values():
    assert Fraction(*round_ratio(10**9, 1, BINARY32)) == 10**9
    assert Fraction(*round_ratio(-3, 2**70, BINARY32)) == Fraction(-3, 2**70)
    assert Fraction(*round_ratio(2**25 - 1, 1, BINARY32)) == 2**25  # tie to even carries


def test_small_precision_format():
    # round 13/10 at p=11: significand grid is 2^-10 in [1, 2)
    r = round_to_format(Fraction(13, 10), P11)
    assert r == Fraction(1331, 1024)
    assert is_in_format(r, P11)
