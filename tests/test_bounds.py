"""Candidate interval construction and the working-precision pipeline."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewcomp.bounds import (
    DEFAULT_EPS_COEFF,
    CandidateInterval,
    InvalidInput,
    ZeroDivisor,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    interval_deltas,
    reference_interval,
    rounded_coefficients,
    theoretical_coefficients,
)
from skewcomp.compensator import compensate, naive_compensate
from skewcomp.formats import BINARY32, BINARY64, FloatFormat, unit_roundoff
from skewcomp.rationals import round_to_format

U32 = unit_roundoff(BINARY32)
U64 = unit_roundoff(BINARY64)


def test_theoretical_coefficients_closed_form():
    # the product of the stage bounds, checked against its closed form
    for p in range(2, 114):
        fmt = FloatFormat(p)
        u = unit_roundoff(fmt)
        c_lo, c_hi = theoretical_coefficients(fmt)
        assert c_lo * (1 + u) ** 2 * (1 + 2 * u) == 1 - u + 2 * u * u
        assert c_hi * (1 + u) ** 2 == (1 + 2 * u) ** 3 * (1 + u - 2 * u * u)
        assert c_lo < 1 < c_hi


def test_practical_coefficients_loosen_theoretical():
    # the pair candidate_interval applies for the practical method
    for p in range(2, 114):
        fmt = FloatFormat(p)
        t_lo, t_hi = theoretical_coefficients(fmt)
        p_lo, p_hi = rounded_coefficients("practical", fmt)
        assert p_lo < t_lo and p_hi > t_hi


def test_rounded_coefficients_frozen():
    # every atom of the formulas rounded in the working format collapses,
    # via the 1 + u tie, to these exact values in both formats
    for fmt, u in ((BINARY32, U32), (BINARY64, U64)):
        assert rounded_coefficients("theoretical", fmt) == (1 - 3 * u, 1 + 6 * u)
        assert rounded_coefficients("practical", fmt) == (1 - 7 * u, 1 + 6 * u)


def test_rounded_coefficients_unknown_method():
    with pytest.raises(ValueError):
        rounded_coefficients("approximate", BINARY32)


def test_clock_estimate_examples():
    assert clock_estimate(10, 1, 2, "binary64") == 5.0
    assert clock_estimate(10, 1, 2, "binary32") == 5.0
    assert clock_estimate(0, 1, 2) == 0.0
    assert clock_estimate(10**6, 7, 7, "binary32") == 10**6
    # exact t = 99995000.2499...; the binary32 pipeline lands on the integer
    assert clock_estimate(10**8, 10**6, 1000050, "binary32") == 99995000.0


def test_clock_estimate_validation():
    # the hardware and emulated estimates check A != 0, then the signs, then the int rule
    for estimate in (clock_estimate, lambda i, D, A: emulated_clock_estimate(i, D, A, BINARY32)):
        for i, D, A in ((1, 1, 0), (-1, 1.0, 0)):
            with pytest.raises(ZeroDivisor):
                estimate(i, D, A)
        for i, D, A in ((-1, 1, 2), (1, -1, 2), (1, 1, -2), (-3, 1, 2), (3, 1, -2), (-1.0, 1, 2)):
            with pytest.raises(InvalidInput, match="need i, D, A >= 0"):
                estimate(i, D, A)


def test_hardware_agrees_with_emulation():
    rng = random.Random(4242)
    for _ in range(4000):
        i = rng.randint(0, 10**10)
        D = rng.randint(1, 10**7)
        A = rng.randint(1, 10**7)
        for fmt, label in ((BINARY32, "binary32"), (BINARY64, "binary64")):
            hw = clock_estimate(i, D, A, label)
            assert Fraction(hw) == emulated_clock_estimate(i, D, A, fmt)


def test_large_inputs_fall_back_to_emulation():
    i = 2**53 + 1
    value = clock_estimate(i, 1, 2, "binary64")
    assert Fraction(value) == emulated_clock_estimate(i, 1, 2, BINARY64)


@pytest.mark.parametrize("i", [10, 2**53 - 1, 2**53, 2**53 + 1])
def test_clock_estimate_hardware_path_is_a_property_of_the_format(i):
    with pytest.raises(ValueError, match="no hardware path"):
        clock_estimate(i, 3, 7, FloatFormat(11))
    # binary32 and binary64 have one on either side of 2^53
    for fmt, label in ((BINARY32, "binary32"), (BINARY64, "binary64")):
        assert Fraction(clock_estimate(i, 3, 7, label)) == emulated_clock_estimate(i, 3, 7, fmt)


def test_candidate_theoretical_example():
    cand = candidate_interval(10, 1, 2, "theoretical", "binary64")
    assert (cand.lb, cand.ub) == (4, 6)
    assert cand.method == "theoretical"
    assert cand.precision == "binary64"
    assert cand.width == 2


def test_candidate_practical_example():
    cand = candidate_interval(16, 1, 2, "practical", "binary32")
    assert (cand.lb, cand.ub) == (7, 9)


def test_candidate_approximate_example():
    # eps_hat = fl(1e-7 * 1e6) = fl(1/10), margin 1 + 13421773/134217728
    cand = candidate_interval(10**6, 1, 2, "approximate", "binary32")
    assert (cand.lb, cand.ub) == (499998, 500002)


def test_candidate_zero_slope_degenerates():
    cand = candidate_interval(10**6, 0, 7, "practical", "binary32")
    assert (cand.lb, cand.ub) == (0, 0)
    ref = reference_interval(10**6, 0, 7)
    assert (ref.lb, ref.ub) == (0, 0)


def test_candidate_validation():
    with pytest.raises(ZeroDivisor):
        candidate_interval(1, 0, 0)
    with pytest.raises(InvalidInput):
        candidate_interval(1, 3, 2)  # slope must be decomposed first
    with pytest.raises(InvalidInput):
        candidate_interval(-1, 1, 2)
    with pytest.raises(ValueError):
        candidate_interval(1, 1, 2, method="optimal")


def test_eps_coeff_rejects_float():
    with pytest.raises(TypeError):
        candidate_interval(10, 1, 2, "approximate", "binary32", eps_coeff=1e-7)


def test_eps_coeff_accepts_exact_types():
    a = candidate_interval(10, 1, 2, "approximate", "binary32", Fraction(1, 10**7))
    b = candidate_interval(10, 1, 2, "approximate", "binary32", "1/10000000")
    assert (a.lb, a.ub) == (b.lb, b.ub)


def test_eps_coeff_rejects_negative():
    # the margin 1 + eps_hat = 1 - 1e-3 is still positive at i = 1e9
    with pytest.raises(ValueError, match="eps_coeff >= 0"):
        candidate_interval(10**9, 1, 2, "approximate", "binary32", Fraction(-1, 10**12))
    assert candidate_interval(10**9, 1, 2, "approximate", "binary32", 0).width > 0


_FORMAT_CALLS = {
    "compensate": lambda fmt: compensate(10**9, 999900, 10**6, "practical", fmt),
    "candidate_interval": lambda fmt: candidate_interval(10**9, 999900, 10**6, "approximate", fmt),
    "reference_interval": lambda fmt: reference_interval(10**9, 999900, 10**6, fmt),
    "clock_estimate": lambda fmt: clock_estimate(10**9, 999900, 10**6, fmt),
    "emulated_clock_estimate": lambda fmt: emulated_clock_estimate(10**9, 999900, 10**6, fmt),
    "naive_compensate": lambda fmt: naive_compensate(10**9, 999900, 10**6, fmt),
}


@pytest.mark.parametrize("label, fmt", [("binary32", BINARY32), ("binary64", BINARY64)], ids=["binary32", "binary64"])
@pytest.mark.parametrize("call", list(_FORMAT_CALLS.values()), ids=list(_FORMAT_CALLS))
def test_every_format_parameter_takes_a_label(call, label, fmt):
    assert call(label) == call(fmt)


def test_reference_interval_formats():
    ref32 = reference_interval(10**8, 999900, 10**6)
    ref64 = reference_interval(10**8, 999900, 10**6, BINARY64)
    # tighter unit roundoff pulls the reference interval tighter
    assert ref64.lb >= ref32.lb
    assert ref64.ub <= ref32.ub
    assert ref32.method == "reference"
    assert ref32.precision == "exact"


def test_interval_deltas_signs():
    cand = CandidateInterval(4, 6, "practical", "binary32")
    ref = CandidateInterval(5, 5, "reference", "exact")
    assert interval_deltas(cand, ref) == (1, 1)
    tight = CandidateInterval(6, 5 + 1, "practical", "binary32")
    assert interval_deltas(tight, ref) == (-1, 1)


@settings(max_examples=400, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=10**9),
    db=st.integers(min_value=0, max_value=10**6 - 1),
    a=st.integers(min_value=1, max_value=10**6),
)
def test_practical_interval_contains_nearest(i, db, a):
    """The guarantee the walk relies on: the practical candidate always
    brackets the round-half-up of the exact i*db/a (slope below 1)."""
    if db >= a:
        db %= a
    cand = candidate_interval(i, db, a, "practical", "binary32")
    j = math.floor(Fraction(i * db, a) + Fraction(1, 2)) if db else 0
    assert cand.lb <= j <= cand.ub


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=10**9),
    db=st.integers(min_value=0, max_value=10**6 - 1),
    a=st.integers(min_value=1, max_value=10**6),
)
def test_approximate_interval_contains_pipeline_value(i, db, a):
    """The approximate interval always contains the pipeline t_hat itself;
    whether it contains the true clock is only a heuristic claim."""
    if db >= a:
        db %= a
    cand = candidate_interval(i, db, a, "approximate", "binary32")
    t_hat = emulated_clock_estimate(i, db, a, BINARY32)
    assert cand.lb <= t_hat <= cand.ub


def test_pipeline_composition_matches_emulation():
    rng = random.Random(11)
    for _ in range(500):
        i = rng.randint(0, 10**9)
        D = rng.randint(1, 10**6)
        A = rng.randint(1, 10**6)
        i_r = round_to_format(Fraction(i), BINARY32)
        d_r = round_to_format(Fraction(D), BINARY32)
        a_r = round_to_format(Fraction(A), BINARY32)
        q = round_to_format(d_r / a_r, BINARY32)
        expect = round_to_format(i_r * q, BINARY32)
        assert emulated_clock_estimate(i, D, A, BINARY32) == expect


# both sides of the binary32 and binary64 hardware route switches
ROUTE_EDGES = (0, 2**24 - 1, 2**24, 2**24 + 1, 2**53 - 1, 2**53, 2**53 + 1)
KERNEL_FORMATS = (BINARY32, BINARY64, FloatFormat(11))


def _check_kernel_against_fractions(fmt, i, d, a, eps):
    """Interval ends and the naive rounding equal their Fraction formulas."""
    t_hat = emulated_clock_estimate(i, d, a, fmt)
    for method in ("theoretical", "practical"):
        c_lo, c_hi = rounded_coefficients(method, fmt)
        cand = candidate_interval(i, d, a, method, fmt)
        assert (cand.lb, cand.ub) == (math.floor(c_lo * t_hat), math.ceil(c_hi * t_hat))
    margin = 1 + round_to_format(eps * i, fmt)
    cand = candidate_interval(i, d, a, "approximate", fmt, eps)
    assert (cand.lb, cand.ub) == (math.floor(t_hat - margin), math.ceil(t_hat + margin))
    c_lo, c_hi = theoretical_coefficients(fmt)
    t = Fraction(i * d, a)
    ref = reference_interval(i, d, a, fmt)
    assert (ref.lb, ref.ub) == (math.floor(c_lo * t), math.ceil(c_hi * t))
    if d > 0:
        assert naive_compensate(i, d, a, fmt) == math.floor(round_to_format(t, fmt))


@pytest.mark.parametrize("fmt", KERNEL_FORMATS, ids=lambda f: f"p{f.precision}")
@pytest.mark.parametrize("i", ROUTE_EDGES)
@pytest.mark.parametrize("d, a", [(0, 7), (1, 3), (999_999, 10**6), (2**53, 2**53 + 1)])
def test_integer_kernel_at_route_edges(fmt, i, d, a):
    _check_kernel_against_fractions(fmt, i, d, a, DEFAULT_EPS_COEFF)


@settings(max_examples=400, deadline=None)
@given(
    fmt=st.sampled_from(KERNEL_FORMATS),
    i=st.sampled_from(ROUTE_EDGES) | st.integers(min_value=0, max_value=2**60),
    a=st.integers(min_value=1, max_value=2**56),
    d_frac=st.just(Fraction(0)) | st.fractions(min_value=0, max_value=1),
    eps=st.sampled_from((DEFAULT_EPS_COEFF, Fraction(0), Fraction(3, 7))),
)
def test_integer_kernel_matches_fraction_formulas(fmt, i, a, d_frac, eps):
    _check_kernel_against_fractions(fmt, i, min(int(d_frac * a), a - 1), a, eps)


def _numpy_binary32_estimate(i, D, A):
    """The binary32 pipeline on numpy float32 scalars."""
    import numpy as np

    q = np.float32(D) / np.float32(A)
    return float(np.float32(i) * q)


def _quotients_nearest_binary32_midpoints(count=8):
    """(D, A) of binary32 integers whose quotient comes nearest a binary32 midpoint.

    D * 2^25 - M * A = +-1 with M odd and 2^24 <= M < 2^25, so D/A lies
    1/(A * 2^25) from the midpoint M / 2^25 of [1/2, 1): about 16 binary64
    ulps, and no quotient of two 24-bit integers comes nearer, so its
    binary64 value never lands on the midpoint itself.
    """
    found = []
    for a in range(2**24 - 1, 2**23, -2):
        for sign in (1, -1):
            d = sign * pow(2**25, -1, a) % a
            if 2 * d >= a:
                m = (d * 2**25 - sign) // a
                assert m % 2 == 1 and 2**24 <= m < 2**25
                assert abs(Fraction(d / a) - Fraction(m, 2**25)) < 2**-48
                found.append((d, a))
        if len(found) >= count:
            return found


EDGE_QUOTIENTS = ((1, 3), (999_999, 10**6), (2**24 - 3, 2**24 - 1), (2**53 - 3, 2**53 - 1))
BINARY32_ROUTE_CASES = [
    *((i, d, a) for i in (2**24 - 1, 2**24 + 1, 2**53 - 1) for d, a in EDGE_QUOTIENTS),
    *(
        (i, d, a)
        for i in (1, 2**24 - 1, 2**24 + 1, 10**9)
        for d, a in _quotients_nearest_binary32_midpoints()
    ),
    # i * q is exactly a binary32 midpoint: ties to even, down and up
    (3, 2**23 + 1, 2**24),
    (3, 2**23 + 3, 2**24),
]


@pytest.mark.parametrize("i, d, a", BINARY32_ROUTE_CASES)
def test_binary32_route_matches_numpy_float32_at_edges(i, d, a):
    assert clock_estimate(i, d, a, "binary32") == _numpy_binary32_estimate(i, d, a)


@settings(max_examples=1000, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=2**53 - 1),
    x=st.integers(min_value=0, max_value=2**53 - 1),
    y=st.integers(min_value=0, max_value=2**53 - 1),
)
def test_binary32_route_matches_numpy_float32(i, x, y):
    assume(x != y)
    d, a = min(x, y), max(x, y)
    assert clock_estimate(i, d, a, "binary32") == _numpy_binary32_estimate(i, d, a)


@settings(max_examples=400, deadline=None)
@given(
    fmt=st.sampled_from(KERNEL_FORMATS),
    i=st.sampled_from(ROUTE_EDGES) | st.integers(min_value=0, max_value=2**60),
    d=st.sampled_from(ROUTE_EDGES) | st.integers(min_value=0, max_value=2**60),
    a=st.integers(min_value=1, max_value=2**60),
)
def test_emulated_estimate_matches_fraction_pipeline(fmt, i, d, a):
    # a negative input is rejected as on the hardware route (test_clock_estimate_validation)
    rtf = lambda q: round_to_format(q, fmt)
    expect = rtf(rtf(Fraction(i)) * rtf(rtf(Fraction(d)) / rtf(Fraction(a))))
    assert emulated_clock_estimate(i, d, a, fmt) == expect
