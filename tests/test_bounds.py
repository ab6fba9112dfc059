"""Candidate interval construction and the working-precision pipeline."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skewcomp.bounds import (
    DEFAULT_EPS_COEFF,
    CandidateInterval,
    InvalidInput,
    candidate_interval,
    certify,
    clock_estimate,
    emulated_clock_estimate,
    interval_deltas,
    reference_interval,
    rounded_coefficients,
    theoretical_coefficients,
)
from skewcomp.compensator import compensate, naive_compensate
from skewcomp.formats import (
    BINARY32,
    BINARY64,
    FloatFormat,
    error_budget,
    format_label,
    op_error_bound,
    relative_errors,
    unit_roundoff,
)
from skewcomp.rationals import is_in_format, round_ratio, round_to_format

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
    with pytest.raises(ValueError, match="no working-precision coefficients for method 'approximate'"):
        rounded_coefficients("approximate", BINARY32)


@pytest.mark.parametrize(
    "call",
    [
        lambda: rounded_coefficients("nope", BINARY32),
        lambda: certify("nope", BINARY32),
        lambda: candidate_interval(10, 1, 2, "nope"),
        lambda: compensate(10**9, 999, 1000, "nope"),
        lambda: compensate(10**9, 1000, 1000, "nope"),
        lambda: compensate(10**9, 1001, 1000, "nope"),
    ],
    ids=["rounded_coefficients", "certify", "candidate_interval", "case1", "identity", "case2"],
)
def test_every_caller_names_an_unknown_method(call):
    # rounded_coefficients alone knows the method set, and its message reaches every caller
    with pytest.raises(ValueError, match=r"unknown method 'nope'; expected one of \('theoretical', 'practical', 'approximate'\)"):
        call()


def test_clock_estimate_examples():
    assert clock_estimate(10, 1, 2, "binary64") == 5.0
    assert clock_estimate(10, 1, 2, "binary32") == 5.0
    assert clock_estimate(0, 1, 2) == 0.0
    assert clock_estimate(10**6, 7, 7, "binary32") == 10**6
    # exact t = 99995000.2499...; the binary32 pipeline lands on the integer
    assert clock_estimate(10**8, 10**6, 1000050, "binary32") == 99995000.0


def test_clock_estimate_validation():
    # the hardware and emulated estimates apply the int rule, then check the signs
    for estimate in (clock_estimate, lambda i, D, A: emulated_clock_estimate(i, D, A, BINARY32)):
        for i, D, A in ((1, 1, 0), (-1, 1, 2), (1, -1, 2), (1, 1, -2), (-3, 1, 2), (3, 1, -2)):
            with pytest.raises(InvalidInput, match="need i, D, A >= 0"):
                estimate(i, D, A)
        # a float breaks the int rule whatever the signs
        for i, D, A, names in ((-1, 1.0, 0, "int, float, int"), (-1.0, 1, 2, "float, int, int")):
            with pytest.raises(TypeError, match=f"^need int i, D, A, got {names}$"):
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
    with pytest.raises(InvalidInput):
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
    "compensate": lambda fmt, i=10**9: compensate(i, 999900, 10**6, "practical", fmt),
    "candidate_interval": lambda fmt, i=10**9: candidate_interval(i, 999900, 10**6, "approximate", fmt),
    "reference_interval": lambda fmt, i=10**9: reference_interval(i, 999900, 10**6, fmt),
    "clock_estimate": lambda fmt, i=10**9: clock_estimate(i, 999900, 10**6, fmt),
    "emulated_clock_estimate": lambda fmt, i=10**9: emulated_clock_estimate(i, 999900, 10**6, fmt),
    "naive_compensate": lambda fmt, i=10**9: naive_compensate(i, 999900, 10**6, fmt),
}


# functions of a format with no i, so no (i, D, A) rule comes before the precision
_FORMAT_ONLY_CALLS = {
    "unit_roundoff": unit_roundoff,
    "op_error_bound": lambda fmt: op_error_bound("divide", "E2", fmt),
    "error_budget": error_budget,
    "format_label": format_label,
    "relative_errors": lambda fmt: relative_errors(Fraction(1, 3), fmt),
    "round_ratio": lambda fmt: round_ratio(1, 3, fmt),
    "round_to_format": lambda fmt: round_to_format(Fraction(1, 3), fmt),
    "is_in_format": lambda fmt: is_in_format(Fraction(2**30 + 1, 2**30), fmt),  # in binary64 only
}


@pytest.mark.parametrize("label, fmt", [("binary32", BINARY32), ("binary64", BINARY64)], ids=["binary32", "binary64"])
@pytest.mark.parametrize(
    "call", [*_FORMAT_CALLS.values(), *_FORMAT_ONLY_CALLS.values()], ids=[*_FORMAT_CALLS, *_FORMAT_ONLY_CALLS]
)
def test_every_format_parameter_takes_a_label(call, label, fmt):
    assert call(label) == call(fmt)


@pytest.mark.parametrize("call", list(_FORMAT_CALLS.values()), ids=list(_FORMAT_CALLS))
def test_inputs_are_checked_before_the_precision(call):
    with pytest.raises(InvalidInput, match="need i, D, A >= 0"):
        call("nope", -1)
    with pytest.raises(ValueError, match="unknown precision 'nope'"):
        call("nope")


def test_plan_cache_keeps_every_format_and_method_rule():
    # (24,) hashes and compares equal to BINARY32 but is not a FloatFormat
    assert (24,) == BINARY32 and hash((24,)) == hash(BINARY32)
    for call in (candidate_interval, compensate):
        assert call(10, 1, 2, "practical", BINARY32).precision == "binary32"
        with pytest.raises(ValueError, match=r"unknown precision \(24,\)"):
            call(10, 1, 2, "practical", (24,))
        assert call(10, 1, 2, "practical", FloatFormat(24)).precision == "binary32"
        with pytest.raises(ValueError, match="unknown precision 'nope'"):
            call(10, 1, 2, "nope", "nope")
        with pytest.raises(TypeError, match="unhashable"):
            call(10, 1, 2, ["practical"])
        with pytest.raises(TypeError, match="unhashable"):
            call(10, 1, 2, "practical", ["binary32"])
        # and again once the plan is cached under each spelling of binary32
        for precision in ("binary32", FloatFormat(24)):
            assert call(10, 1, 2, "practical", precision).precision == "binary32"
            with pytest.raises(ValueError, match=r"unknown precision \(24,\)"):
                call(10, 1, 2, "practical", (24,))
            with pytest.raises(TypeError, match="unhashable"):
                call(10, 1, 2, "practical", [24])
    # the identity branch D = A checks the method and eps_coeff too
    compensate(10, 7, 7, "practical", BINARY32)
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        compensate(10, 7, 7, "nope")
    with pytest.raises(TypeError, match="eps_coeff must be exact"):
        compensate(10, 7, 7, "approximate", "binary32", 1e-7)


@pytest.mark.parametrize(
    "coefficients",
    [theoretical_coefficients, lambda fmt: rounded_coefficients("practical", fmt)],
    ids=["theoretical", "rounded"],
)
def test_coefficient_caches_resolve_the_format(coefficients):
    # the caches must not answer (24,), equal to BINARY32, from an earlier BINARY32 call
    theoretical_coefficients.cache_clear()
    rounded_coefficients.cache_clear()
    with pytest.raises(ValueError, match=r"unknown precision \(24,\)"):
        coefficients((24,))
    want = coefficients(BINARY32)
    with pytest.raises(ValueError, match=r"unknown precision \(24,\)"):
        coefficients((24,))
    assert coefficients("binary32") == coefficients(FloatFormat(24)) == want
    assert certify("practical", "binary32") == certify("practical", BINARY32)


# D = 0, integral t_hat, i = 2^24 -/+ 1 and max(i, A) = 2^53 - 1, the top of the hardware route
@settings(max_examples=400, deadline=None)
@given(
    method=st.sampled_from(("theoretical", "practical")),
    i=st.integers(min_value=0, max_value=2**53 - 1),
    a=st.integers(min_value=1, max_value=2**53 - 1),
    d_frac=st.just(Fraction(0)) | st.fractions(min_value=0, max_value=1),
)
@example(method="practical", i=10**6, a=7, d_frac=Fraction(0))
@example(method="theoretical", i=10, a=2, d_frac=Fraction(1, 2))
@example(method="practical", i=2**24 + 2, a=4, d_frac=Fraction(3, 4))
@example(method="theoretical", i=2**24 - 1, a=10**6, d_frac=Fraction(999_999, 10**6))
@example(method="practical", i=2**24 + 1, a=10**6 + 37, d_frac=Fraction(1, 3))
@example(method="theoretical", i=2**53 - 1, a=10**6, d_frac=Fraction(1, 7))
@example(method="practical", i=10**9, a=2**53 - 1, d_frac=Fraction(1, 2))
@example(method="theoretical", i=2**53 - 1, a=2**53 - 1, d_frac=Fraction(1))
def test_binary32_ends_equal_the_exact_products(method, i, a, d_frac):
    # the hardware route's ends come from one binary64 multiply each
    d = min(int(d_frac * a), a - 1)
    t_hat = emulated_clock_estimate(i, d, a, BINARY32)
    c_lo, c_hi = rounded_coefficients(method, BINARY32)
    cand = candidate_interval(i, d, a, method, BINARY32)
    assert (cand.lb, cand.ub) == (math.floor(c_lo * t_hat), math.ceil(c_hi * t_hat))


def test_binary32_ends_at_the_theoretical_miss_witness():
    i, d, a = 1074754113, 268486546, 536870881
    t_hat = emulated_clock_estimate(i, d, a, BINARY32)
    c_lo, c_hi = rounded_coefficients("theoretical", BINARY32)
    expect = (math.floor(c_lo * t_hat), math.ceil(c_hi * t_hat))
    assert candidate_interval(i, d, a, "theoretical", BINARY32)[:2] == expect == (537479391, 537479681)


def test_certify_every_precision():
    for p in range(4, 114):
        fmt = FloatFormat(p)
        u = unit_roundoff(fmt)
        practical = certify("practical", fmt)
        assert practical.lower_slack <= 0 <= practical.upper_slack, p
        assert practical.lower_onset is None and practical.upper_onset is None
        theoretical = certify("theoretical", fmt)
        # 1 + u rounds to 1, so the rounded lo sits above 1/c_hi
        assert u < theoretical.lower_slack < 2 * u, p
        assert theoretical.lower_onset == 1 / (2 * theoretical.lower_slack)
        assert theoretical.upper_slack >= 0 and theoretical.upper_onset is None
    onset32 = certify("theoretical", BINARY32).lower_onset
    assert Fraction("4194305.25") < onset32 < Fraction("4194305.26")
    # the binary32 witness lies far past it, every binary64 table row before its onset
    assert Fraction(1074754113 * 268486546, 536870881) > onset32
    assert 2.25e15 < certify("theoretical", BINARY64).lower_onset < 2.26e15
    with pytest.raises(ValueError, match="no working-precision coefficients"):
        certify("approximate", BINARY32)


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


def test_negative_delta_is_a_tighter_side_not_a_miss():
    # table2's dub < 0 says the candidate ends below the reference's upper
    # end; the clock is still inside, so compensate reports no violation
    i, D, A = 10**8, 77606, 1000077606
    cand = candidate_interval(i, D, A, "practical", "binary32")
    ref = reference_interval(i, D, A, "binary32")
    assert (cand.lb, cand.ub, ref.lb, ref.ub) == (7759, 7760, 7759, 7761)
    assert interval_deltas(cand, ref) == (0, -1)
    res = compensate(i, D, A, "practical", "binary32")
    assert (res.j, res.bounds_violated) == ((2 * i * D + A) // (2 * A), False) == (7760, False)


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


B32_EDGES = (2**24 - 1, 2**24, 2**24 + 1)
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
    # each of i, D and A at the top of the exact binary32 ints, the tie
    # 2^24 + 1 included, beside small and large partners (D > A too);
    # (10, 2^24 + 1, 5) rounds D though A is already a binary32 value
    *((e, d, a) for e in B32_EDGES for d, a in ((7, 5), (999_999, 10**6 + 37))),
    *((i, e, a) for e in B32_EDGES for i, a in ((10, 5), (10**9, 10**6 + 37))),
    *((i, d, e) for e in B32_EDGES for i, d in ((10, 7), (10**9, 10**6 - 3))),
]


@pytest.mark.parametrize("i, d, a", BINARY32_ROUTE_CASES)
def test_binary32_route_matches_numpy_float32_at_edges(i, d, a):
    t_hat = clock_estimate(i, d, a, "binary32")
    assert t_hat == _numpy_binary32_estimate(i, d, a) == emulated_clock_estimate(i, d, a, BINARY32)


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


def _struct_binary32_estimate(i, D, A):
    """The binary32 pipeline with each value rounded by packing it as a C float."""
    r32 = lambda x: struct.unpack("f", struct.pack("f", x))[0]  # to nearest, ties to even
    return r32(r32(i) * r32(r32(D) / r32(A)))


# ints that round to binary32 as exact ties: a 25-bit odd significand, scaled below 2^53
_B32_TIES = st.builds(lambda m, s: (2 * m + 1) << s, st.integers(2**23, 2**24 - 1), st.integers(0, 28))
_SPLIT_INPUTS = (
    st.sampled_from((1, 2**24 - 1, 2**24, 2**24 + 1, 2**53 - 2, 2**53 - 1))
    | _B32_TIES
    | st.integers(min_value=1, max_value=2**53 - 1)
)


@settings(max_examples=400, deadline=None)
@given(i=st.just(0) | _SPLIT_INPUTS, d=st.just(0) | _SPLIT_INPUTS, a=_SPLIT_INPUTS)
@example(i=3, d=2**23 + 1, a=2**24)  # i * q is a tie, rounded down to even
@example(i=3, d=2**23 + 3, a=2**24)  # and up
@example(i=2**53 - 1, d=0, a=2**24 + 1)
def test_binary32_estimate_matches_struct_rounding(i, d, a):
    # the hardware route rounds by Veltkamp splits; struct is the reference
    assert clock_estimate(i, d, a, "binary32") == _struct_binary32_estimate(i, d, a)


# log-uniform over 2^15..2^32, and every int within 64 of 2^24
_NEAR_2_TO_THE_24 = st.integers(min_value=16, max_value=32).flatmap(
    lambda e: st.integers(min_value=2 ** (e - 1), max_value=2**e)
) | st.integers(min_value=2**24 - 64, max_value=2**24 + 64)


@settings(max_examples=400, deadline=None)
@given(i=_NEAR_2_TO_THE_24, d=_NEAR_2_TO_THE_24, a=_NEAR_2_TO_THE_24)
def test_binary32_estimate_near_2_to_the_24(i, d, a):
    # an input is left unrounded only where it is already a binary32 value
    t_hat = clock_estimate(i, d, a, "binary32")
    assert t_hat == emulated_clock_estimate(i, d, a, BINARY32) == _numpy_binary32_estimate(i, d, a)


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
