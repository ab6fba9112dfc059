"""Integer walk refinement and the compensation entry points."""

import math
import random
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import skewcomp
from casetable import case_table
from skewcomp import bounds
from skewcomp.bounds import (
    DEFAULT_EPS_COEFF,
    CandidateInterval,
    InvalidInput,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    reference_interval,
    rounded_coefficients,
    theoretical_coefficients,
)
from skewcomp.compensator import (
    CompResult,
    OverflowRisk,
    RefineResult,
    compensate,
    naive_compensate,
    oracle_nearest,
    refine,
)
from skewcomp.experiment import (
    CaseArrays,
    bounds_experiment,
    compensate_triples,
    compensation_experiment,
    generate_samples,
    sample_cases,
)
from skewcomp.formats import BINARY32, FloatFormat, format_label, resolve_format
from skewcomp.rationals import round_ratio

METHODS = ("theoretical", "practical", "approximate")
PRECISIONS = ("binary32", "binary64")


def test_oracle_examples():
    assert oracle_nearest(9, 1, 2) == 5  # 4.5 ties up
    assert oracle_nearest(7, 3, 5) == 4  # 4.2
    assert oracle_nearest(10, 1, 2) == 5
    assert oracle_nearest(0, 3, 5) == 0


def test_oracle_validation():
    with pytest.raises(InvalidInput):
        oracle_nearest(-1, 1, 2)
    with pytest.raises(InvalidInput):
        oracle_nearest(1, 1, 0)


@pytest.mark.parametrize(
    "function",
    [clock_estimate, emulated_clock_estimate, candidate_interval, reference_interval, oracle_nearest, naive_compensate],
    ids=lambda function: function.__name__,
)
def test_every_ida_function_shares_one_input_rule(function):
    # A = 0 is an invalid input like a negative one, whatever D is
    for d in (0, 1):
        with pytest.raises(InvalidInput, match="A > 0"):
            function(10, d, 0)
    # D = 0 is the exact clock 0: an estimate of 0, an interval [0, 0]
    value = function(10, 0, 7)
    assert value[:2] == (0, 0) if isinstance(value, tuple) else value == 0


_SIGNS = "need i, D, A >= 0 and A > 0, got "
_ESTIMATES = (clock_estimate, emulated_clock_estimate, oracle_nearest, naive_compensate)
_REJECTED = [
    (compensate, (10, 0, 5), "need 0 < D < 2A, got D=0 A=5"),
    (compensate, (10, 10, 5), "need 0 < D < 2A, got D=10 A=5"),  # D = 2A
    (compensate, (10, 3, 0), "need 0 < D < 2A, got D=3 A=0"),
    (compensate, (-1, 3, 5), _SIGNS + "i=-1 D=3 A=5"),
    (refine, (10, 2, 1, (5, 4)), "empty interval [5, 4]"),
    (refine, (2, 5, 1, (0, 6)), "interval width 6 exceeds i=2"),
    (refine, (10, 2, 3, (4, 6)), "need 0 <= delta_b < delta_a, got delta_b=3 delta_a=2"),
    *(
        (function, args, message)
        for function in (candidate_interval, reference_interval)
        for args, message in (
            ((10, 5, 5), "need D < A after decomposition, got D=5 A=5"),
            ((10, 3, 0), _SIGNS + "i=10 D=3 A=0"),
            ((-1, 3, 5), _SIGNS + "i=-1 D=3 A=5"),
        )
    ),
    *((function, (-1, 3, 5), _SIGNS + "i=-1 D=3 A=5") for function in _ESTIMATES),
    *((function, (10, 3, 0), _SIGNS + "i=10 D=3 A=0") for function in _ESTIMATES),
]


@pytest.mark.parametrize(
    "function, args, message",
    _REJECTED,
    ids=[f"{function.__name__}-{args}" for function, args, _ in _REJECTED],
)
def test_every_rejected_value_is_invalid_input(function, args, message):
    # one error model: a value an (i, D, A) function or the walk rejects is
    # an InvalidInput, not a sibling ValueError class or a bare ValueError
    with pytest.raises(InvalidInput) as exc:
        function(*args)
    assert type(exc.value) is InvalidInput
    assert str(exc.value) == message


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=10**12),
    d=st.integers(min_value=1, max_value=10**6),
    a=st.integers(min_value=1, max_value=10**6),
)
def test_oracle_matches_rational_rounding(i, d, a):
    assert oracle_nearest(i, d, a) == math.floor(Fraction(i * d, a) + Fraction(1, 2))


def test_refine_examples():
    assert refine(10, 2, 1, (4, 6)) == RefineResult(5, 2, False)
    assert refine(4, 3, 1, (1, 1)) == RefineResult(1, 0, False)
    # iterations is the interval width; the walk itself stops at the clock
    assert refine(5, 5, 4, (3, 5)) == RefineResult(4, 2, False)


def test_refine_accepts_interval_objects():
    box = CandidateInterval(4, 6, "practical", "binary32")
    assert refine(10, 2, 1, box) == refine(10, 2, 1, (4, 6))


def test_refine_flags_bad_interval():
    result = refine(10, 2, 1, (7, 9))
    assert result.j == 5  # the exact fallback still recovers the true value
    assert result.bounds_violated


def test_refine_validation():
    with pytest.raises(InvalidInput):
        refine(10, 2, 3, (4, 6))  # slope must stay below 1
    with pytest.raises(ValueError):
        refine(2, 5, 1, (0, 6))  # width exceeds i
    with pytest.raises(ValueError):
        refine(10, 2, 1, (5, 4))  # empty interval


def test_refine_overflow_guard():
    with pytest.raises(OverflowRisk):
        refine(2**40, 2**33, 2**33 - 1, (2**40 - 1, 2**40 - 1))


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=10**6),
    a=st.integers(min_value=1, max_value=10**4),
    db=st.integers(min_value=0, max_value=10**4 - 1),
    w1=st.integers(min_value=0, max_value=2**20),
    w2=st.integers(min_value=0, max_value=2**20),
    lo2=st.integers(min_value=-100, max_value=10**6),
    w3=st.integers(min_value=0, max_value=2**20),
    shift=st.integers(min_value=-60, max_value=10),
)
def test_refine_interval_independent(i, a, db, w1, w2, lo2, w3, shift):
    if db >= a:
        db %= a
    j = math.floor(Fraction(i * db, a) + Fraction(1, 2))
    first = (j, j + min(w1, i))
    second = (lo2, lo2 + min(w2, i))
    r1 = refine(i, a, db, first)
    r2 = refine(i, a, db, second)
    assert r1.j == r2.j == j
    assert r1.iterations == first[1] - first[0]
    assert r2.iterations == second[1] - second[0]
    # near the clock: the interval misses below it, holds it or misses above it
    third = (j + shift, j + shift + min(w3, i))
    r3 = refine(i, a, db, third)
    assert r3.j == j
    assert r3.iterations == third[1] - third[0]
    for (lb, ub), result in ((first, r1), (second, r2), (third, r3)):
        assert result.bounds_violated == (not lb <= j <= ub)


def _unit_step_refine(i, delta_a, delta_b, lb, ub):
    """The one-tick-per-step walk the stride walk must agree with."""
    y = lb
    r = i * delta_b - y * delta_a - (delta_a + 1) // 2
    below = r + delta_a < 0
    while y < ub and r >= 0:
        y += 1
        r -= delta_a
    if below or r >= 0:
        return (2 * i * delta_b + delta_a) // (2 * delta_a), ub - lb, True
    return y, ub - lb, False


# (i, delta_a, delta_b): an exact tie, a steep and a shallow slope, a tiny i,
# delta_a = 1 (each step equals its stride) and products near 2^62
REFINE_SLOPES = [
    (2**20 + 1, 2, 1),
    (10**6 + 12_345, 999_998, 999_997),
    (10**9, 10**6 + 100, 100),
    (600, 3, 1),
    (10**3, 1, 0),
    (2**40 + 3, 2**22 + 1, 2**22),
]
# every width below 40 mixes the stride bits; 2^k - 1, 2^k, 2^k + 1 flank each new top stride
STRIDE_WIDTHS = sorted({*range(40), *(2**k + e for k in range(2, 10) for e in (-1, 0, 1))})


@pytest.mark.parametrize("width", STRIDE_WIDTHS)
def test_refine_stride_walk_matches_unit_steps(width):
    for i, a, db in REFINE_SLOPES:
        j = oracle_nearest(i, db, a)
        # the clock at every offset inside the interval and one tick outside
        # each side, and an interval wholly above i
        for lb in [*(j - offset for offset in range(-1, width + 2)), i + 1]:
            got = refine(i, a, db, (lb, lb + width))
            assert tuple(got) == _unit_step_refine(i, a, db, lb, lb + width), (i, a, db, lb)
            assert got.j == j
            assert got.bounds_violated == (not lb <= j <= lb + width)


def test_refine_walks_a_2_to_the_40_interval():
    # a unit-step walk would need 2^39 steps; the stride walk needs about 40
    assert refine(2**40, 3, 1, (0, 2**40)) == RefineResult(oracle_nearest(2**40, 1, 3), 2**40, False)


def test_compensate_identity():
    result = compensate(10**6, 5, 5)
    assert result == CompResult(10**6, 0, "practical", "binary32", "identity", False)


def test_compensate_case2_example():
    result = compensate(999900, 10**6, 999900)
    assert result.j == 10**6
    assert result.case == "case2"
    assert not result.bounds_violated


def test_compensate_small_example_all_modes():
    for method in METHODS:
        for precision in PRECISIONS:
            result = compensate(7, 3, 5, method, precision)
            assert result.j == 4
            assert result.case == "case1"


def test_compensate_validation():
    with pytest.raises(InvalidInput):
        compensate(10, 0, 5)
    with pytest.raises(InvalidInput):
        compensate(10, 10, 5)  # D = 2A
    with pytest.raises(InvalidInput):
        compensate(10, 3, 0)
    with pytest.raises(InvalidInput):
        compensate(-1, 3, 5)


@pytest.mark.parametrize("D", [8, 5])
def test_compensate_negative_i_names_the_callers_slope(D):
    # the remainder slope is 3 for D = 8 and 0 for D = 5
    with pytest.raises(InvalidInput, match=f"i=-1 D={D} A=5"):
        compensate(-1, D, 5)


@pytest.mark.parametrize(
    "method, eps_coeff, error",
    [
        ("bogus", DEFAULT_EPS_COEFF, ValueError),
        ("approximate", 1e-7, TypeError),
        ("approximate", Fraction(-1, 10**6), ValueError),  # would empty the interval at i = 1e9
        ("approximate", Fraction(-1, 10**12), ValueError),  # margin 1 - 1e-3 at i = 1e9
    ],
)
def test_identity_rejects_what_other_slopes_reject(method, eps_coeff, error):
    for d in (999, 1000, 1001):  # case1, identity, case2
        with pytest.raises(error) as raised:
            compensate(10**9, d, 1000, method, "binary32", eps_coeff)
        assert raised.type is error, d


_TABLE = case_table({(3, 5): 1})
# the int rules' messages; a slot the row does not vary holds an int
_IDA = "need int i, D, A, got {i}, {D}, {A}"
_WALK = "need int i, delta_a, delta_b, lb, ub, got {i}, {A}, {D}, {lb}, {ub}"

# the whole public surface's int arguments, one row per call shape:
# (cell name, public callable, a call of it on the row's int arguments, their good values, their names, the int rule)
_INT_CALLS = [
    ("identity", compensate, compensate, (1, 1, 1), "iDA", _IDA),
    ("case1", compensate, compensate, (1, 1, 2), "iDA", _IDA),
    ("case2", compensate, compensate, (1, 3, 2), "iDA", _IDA),
    ("candidate", candidate_interval, candidate_interval, (1, 1, 2), "iDA", _IDA),
    ("reference", reference_interval, reference_interval, (1, 1, 2), "iDA", _IDA),
    ("refine", refine, lambda i, b, a: refine(i, a, b, (0, 1)), (1, 1, 2), "iDA", _WALK),
    ("refine-ends", refine, lambda lb, ub: refine(2, 2, 1, (lb, ub)), (0, 1), ("lb", "ub"), _WALK),
    ("oracle", oracle_nearest, oracle_nearest, (1, 1, 1), "iDA", _IDA),
    ("naive", naive_compensate, naive_compensate, (1, 1, 1), "iDA", _IDA),
    ("estimate", clock_estimate, clock_estimate, (1, 1, 2), "iDA", _IDA),
    ("estimate-wide", clock_estimate, clock_estimate, (2**53, 1, 2), "iDA", _IDA),  # the emulated route
    ("emulated", emulated_clock_estimate, lambda i, D, A: emulated_clock_estimate(i, D, A, BINARY32), (1, 1, 2), "iDA", _IDA),
    ("round_ratio", round_ratio, lambda num, den: round_ratio(num, den, BINARY32), (5, 2), ("num", "den"), "need int num, den, got {num}, {den}"),
    ("bounds_experiment", bounds_experiment, lambda i: bounds_experiment(_TABLE, (i,)), (10,), "i", _IDA),
    ("compensation_experiment", compensation_experiment, lambda i: compensation_experiment(_TABLE, (i,)), (10,), "i", _IDA),
    ("generate_samples", generate_samples, lambda seed: generate_samples(seed, 10, 1000), (1,), ("seed",), "need int seed, got {seed}"),
    ("generate_samples", generate_samples, lambda n, D: generate_samples(1, n, D), (10, 1000), "nD", "need int n, D, got {n}, {D}"),
    ("sample_cases", sample_cases, lambda seed: sample_cases(seed, 10, 1000), (1,), ("seed",), "need int seed, got {seed}"),
    ("sample_cases", sample_cases, lambda n, D: sample_cases(1, n, D), (10, 1000), "nD", "need int n, D, got {n}, {D}"),
    ("FloatFormat", FloatFormat, FloatFormat, (24,), ("precision",), "need an int precision, got {precision}"),
]  # fmt: skip

# public callables that hold no int argument to a rule: the errors, the records, which
# check nothing, and the functions of a format, a method, a Rational or two intervals
_NO_INT_RULE = (
    "InvalidInput", "OverflowRisk",
    "CandidateInterval", "Certificate", "RefineResult", "CompResult", "ErrorBudget",
    "CaseTable", "ClockSample", "StatSummary", "BoundsRow", "CompRow",
    "resolve_format", "format_label", "unit_roundoff", "op_error_bound", "error_budget",
    "theoretical_coefficients", "rounded_coefficients", "certify",
    "round_to_format", "is_in_format", "relative_errors", "interval_deltas",
)  # fmt: skip

# what 0, -1 and 2**70 give in each int slot once it passes the int rule; None where the call accepts it
_VALUE_CELLS = {
    "identity-i-zero": None,
    "identity-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=1"),
    "identity-i-huge": None,
    "identity-D-zero": (InvalidInput, "need 0 < D < 2A, got D=0 A=1"),
    "identity-D-negative": (InvalidInput, "need 0 < D < 2A, got D=-1 A=1"),
    "identity-D-huge": (InvalidInput, f"need 0 < D < 2A, got D={2**70} A=1"),
    "identity-A-zero": (InvalidInput, "need 0 < D < 2A, got D=1 A=0"),
    "identity-A-negative": (InvalidInput, "need 0 < D < 2A, got D=1 A=-1"),
    "identity-A-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 1} >= 2**63"),
    "case1-i-zero": None,
    "case1-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=2"),
    "case1-i-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 2} >= 2**63"),
    "case1-D-zero": (InvalidInput, "need 0 < D < 2A, got D=0 A=2"),
    "case1-D-negative": (InvalidInput, "need 0 < D < 2A, got D=-1 A=2"),
    "case1-D-huge": (InvalidInput, f"need 0 < D < 2A, got D={2**70} A=2"),
    "case1-A-zero": (InvalidInput, "need 0 < D < 2A, got D=1 A=0"),
    "case1-A-negative": (InvalidInput, "need 0 < D < 2A, got D=1 A=-1"),
    "case1-A-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 1} >= 2**63"),
    "case2-i-zero": None,
    "case2-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=3 A=2"),
    "case2-i-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 2} >= 2**63"),
    "case2-D-zero": (InvalidInput, "need 0 < D < 2A, got D=0 A=2"),
    "case2-D-negative": (InvalidInput, "need 0 < D < 2A, got D=-1 A=2"),
    "case2-D-huge": (InvalidInput, f"need 0 < D < 2A, got D={2**70} A=2"),
    "case2-A-zero": (InvalidInput, "need 0 < D < 2A, got D=3 A=0"),
    "case2-A-negative": (InvalidInput, "need 0 < D < 2A, got D=3 A=-1"),
    "case2-A-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 3} >= 2**63"),
    "candidate-i-zero": None,
    "candidate-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=2"),
    "candidate-i-huge": None,
    "candidate-D-zero": None,
    "candidate-D-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=-1 A=2"),
    "candidate-D-huge": (InvalidInput, f"need D < A after decomposition, got D={2**70} A=2"),
    "candidate-A-zero": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=0"),
    "candidate-A-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=-1"),
    "candidate-A-huge": None,
    "reference-i-zero": None,
    "reference-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=2"),
    "reference-i-huge": None,
    "reference-D-zero": None,
    "reference-D-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=-1 A=2"),
    "reference-D-huge": (InvalidInput, f"need D < A after decomposition, got D={2**70} A=2"),
    "reference-A-zero": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=0"),
    "reference-A-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=-1"),
    "reference-A-huge": None,
    "refine-i-zero": (InvalidInput, "interval width 1 exceeds i=0"),
    "refine-i-negative": (InvalidInput, "interval width 1 exceeds i=-1"),
    "refine-i-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 2} >= 2**63"),
    "refine-D-zero": None,
    "refine-D-negative": (InvalidInput, "need 0 <= delta_b < delta_a, got delta_b=-1 delta_a=2"),
    "refine-D-huge": (InvalidInput, f"need 0 <= delta_b < delta_a, got delta_b={2**70} delta_a=2"),
    "refine-A-zero": (InvalidInput, "need 0 <= delta_b < delta_a, got delta_b=1 delta_a=0"),
    "refine-A-negative": (InvalidInput, "need 0 <= delta_b < delta_a, got delta_b=1 delta_a=-1"),
    "refine-A-huge": (OverflowRisk, f"i*delta_b + delta_a = {2**70 + 1} >= 2**63"),
    "refine-ends-lb-zero": None,
    "refine-ends-lb-negative": None,
    "refine-ends-lb-huge": (InvalidInput, f"empty interval [{2**70}, 1]"),
    "refine-ends-ub-zero": None,
    "refine-ends-ub-negative": (InvalidInput, "empty interval [0, -1]"),
    "refine-ends-ub-huge": (InvalidInput, f"interval width {2**70} exceeds i=2"),
    "oracle-i-zero": None,
    "oracle-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=1"),
    "oracle-i-huge": None,
    "oracle-D-zero": None,
    "oracle-D-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=-1 A=1"),
    "oracle-D-huge": None,
    "oracle-A-zero": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=0"),
    "oracle-A-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=-1"),
    "oracle-A-huge": None,
    "naive-i-zero": None,
    "naive-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=1"),
    "naive-i-huge": None,
    "naive-D-zero": None,
    "naive-D-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=-1 A=1"),
    "naive-D-huge": None,
    "naive-A-zero": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=0"),
    "naive-A-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=-1"),
    "naive-A-huge": None,
    "estimate-i-zero": None,
    "estimate-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=2"),
    "estimate-i-huge": None,
    "estimate-D-zero": None,
    "estimate-D-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=-1 A=2"),
    "estimate-D-huge": None,
    "estimate-A-zero": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=0"),
    "estimate-A-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=-1"),
    "estimate-A-huge": None,
    "estimate-wide-i-zero": None,
    "estimate-wide-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=2"),
    "estimate-wide-i-huge": None,
    "estimate-wide-D-zero": None,
    "estimate-wide-D-negative": (InvalidInput, f"need i, D, A >= 0 and A > 0, got i={2**53} D=-1 A=2"),
    "estimate-wide-D-huge": None,
    "estimate-wide-A-zero": (InvalidInput, f"need i, D, A >= 0 and A > 0, got i={2**53} D=1 A=0"),
    "estimate-wide-A-negative": (InvalidInput, f"need i, D, A >= 0 and A > 0, got i={2**53} D=1 A=-1"),
    "estimate-wide-A-huge": None,
    "emulated-i-zero": None,
    "emulated-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=1 A=2"),
    "emulated-i-huge": None,
    "emulated-D-zero": None,
    "emulated-D-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=-1 A=2"),
    "emulated-D-huge": None,
    "emulated-A-zero": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=0"),
    "emulated-A-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=1 D=1 A=-1"),
    "emulated-A-huge": None,
    "round_ratio-num-zero": None,
    "round_ratio-num-negative": None,
    "round_ratio-num-huge": None,
    "round_ratio-den-zero": (ValueError, "need den > 0, got 0"),
    "round_ratio-den-negative": (ValueError, "need den > 0, got -1"),
    "round_ratio-den-huge": None,
    "bounds_experiment-i-zero": None,
    "bounds_experiment-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=3 A=5"),
    "bounds_experiment-i-huge": None,
    "compensation_experiment-i-zero": None,
    "compensation_experiment-i-negative": (InvalidInput, "need i, D, A >= 0 and A > 0, got i=-1 D=3 A=5"),
    "compensation_experiment-i-huge": (OverflowRisk, f"i*delta_b + delta_a = {3 * 2**70 + 5} >= 2**63"),
    "generate_samples-seed-zero": None,
    "generate_samples-seed-negative": None,
    "generate_samples-seed-huge": None,
    "generate_samples-n-zero": None,
    "generate_samples-n-negative": (ValueError, "need n >= 0, got -1"),
    "generate_samples-D-zero": (ValueError, "need D > 0, got 0"),
    "generate_samples-D-negative": (ValueError, "need D > 0, got -1"),
    "generate_samples-D-huge": None,
    "sample_cases-seed-zero": None,
    "sample_cases-seed-negative": None,
    "sample_cases-seed-huge": None,
    "sample_cases-n-zero": None,
    "sample_cases-n-negative": (ValueError, "need n >= 0, got -1"),
    "sample_cases-D-zero": (ValueError, "need D > 0, got 0"),
    "sample_cases-D-negative": (ValueError, "need D > 0, got -1"),
    "sample_cases-D-huge": None,
    "FloatFormat-precision-zero": (ValueError, "precision must be >= 2, got 0"),
    "FloatFormat-precision-negative": (ValueError, "precision must be >= 2, got -1"),
    "FloatFormat-precision-huge": None,
}


def _cells(ints):
    """One param per (row, slot, bad value): values of another type, or with ints 0, -1 and 2**70."""
    for name, _, call, args, slots, rule in _INT_CALLS:
        for k, (slot, v) in enumerate(zip(slots, args)):
            if ints:
                kinds = {"zero": 0, "negative": -1, "huge": 2**70}
                if slot == "n":
                    del kinds["huge"]  # a draw of 2**70 samples never ends
            else:
                kinds = {"float": float(v), "half": v + 0.5, "np.int64": np.int64(v), "str": str(v), "None": None, "Fraction": Fraction(5, 2)}
                if v in (0, 1):
                    kinds["bool"] = bool(v)
            for kind, value in kinds.items():
                cell = f"{name}-{slot}-{kind}"
                if ints:
                    expected = _VALUE_CELLS[cell]
                else:
                    expected = TypeError, rule.format_map(defaultdict(lambda: "int", {slot: type(value).__name__}))
                yield pytest.param(call, args, k, value, expected, id=cell)


def _check_cell(call, args, slot, value, expected):
    call(*args)
    args = list(args)
    args[slot] = value
    if expected is None:
        call(*args)
        return
    error, message = expected
    with pytest.raises(error) as raised:
        call(*args)
    assert raised.type is error and str(raised.value) == message


@pytest.mark.parametrize("call, args, slot, value, expected", _cells(ints=False))
def test_non_int_inputs_raise_type_error(call, args, slot, value, expected):
    # the integer arithmetic runs in whatever type comes in, so an integral
    # float such as 1.0 can give a wrong clock; only exact ints pass, and each
    # rule tests the type before any comparison, so a str or None meets it too
    _check_cell(call, args, slot, value, expected)


@pytest.mark.parametrize("call, args, slot, value, expected", _cells(ints=True))
def test_int_values_meet_the_value_rules(call, args, slot, value, expected):
    _check_cell(call, args, slot, value, expected)


def test_every_public_callable_is_in_the_int_matrix():
    # a new public function without a row, or outside _NO_INT_RULE, fails here
    public = [getattr(skewcomp, name) for name in skewcomp.__all__]
    rows = {row[1] for row in _INT_CALLS}
    none = {getattr(skewcomp, name) for name in _NO_INT_RULE}
    assert not rows & none
    assert rows | none == {obj for obj in public if callable(obj)}


def test_compensate_flags_hopeless_interval():
    # zero tolerance margin cannot absorb the binary32 pipeline error here
    result = compensate(10**9, 1, 3, "approximate", "binary32", eps_coeff=0)
    assert result.j == 333333333  # still correct: a miss falls back to the exact division
    assert result.bounds_violated


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=10**8),
    a=st.integers(min_value=1, max_value=10**6),
    d=st.integers(min_value=1, max_value=2 * 10**6 - 1),
)
def test_compensate_equals_oracle(i, a, d):
    if d >= 2 * a:
        d = 2 * a - 1
    result = compensate(i, d, a)
    if not result.bounds_violated:
        assert result.j == oracle_nearest(i, d, a)
    # j does not depend on the interval, so it holds on a miss too
    assert result.j == oracle_nearest(i, d, a)
    assert result.bounds_violated == _missed(i, d, a, "practical", "binary32")


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=10**8),
    a=st.integers(min_value=2, max_value=10**6),
    extra=st.integers(min_value=1, max_value=10**6),
)
def test_case2_shift_identity(i, a, extra):
    d = a + min(extra, a - 1)  # a < d < 2a
    assert oracle_nearest(i, d, a) == i + oracle_nearest(i, d - a, a)
    r = compensate(i, d, a)
    assert r.case == "case2"
    if not r.bounds_violated:
        assert r.j == oracle_nearest(i, d, a)
    assert r.j == oracle_nearest(i, d, a)


@pytest.mark.parametrize(
    "a, db, k",
    [
        (2, 1, 0),
        (2, 1, 10**8),
        (10**6, 1, 99),
        (10**6, 999_999, 0),
        (999_998, 999_997, 123),
        (2**30, 2**29 + 1, 7),
    ],
)
def test_compensate_rounds_exact_ties_up(a, db, k):
    # i*db = a/2 (mod a), so i*D/A sits exactly halfway between two integers
    i = (a // 2) * pow(db, -1, a) % a + k * a
    for d in (db, a + db):
        assert 2 * i * d % (2 * a) == a
        for method in METHODS:
            for precision in PRECISIONS:
                result = compensate(i, d, a, method, precision)
                assert 2 * a * result.j == 2 * i * d + a, (method, precision, i, d, a)


@pytest.mark.parametrize("a", [2, 3, 10**6, 2**31 - 1])
@pytest.mark.parametrize("i", [0, 1, 10**6, 10**9 + 7])
def test_compensate_steepest_slope(a, i):
    d = 2 * a - 1
    for method in METHODS:
        for precision in PRECISIONS:
            result = compensate(i, d, a, method, precision)
            assert result.case == "case2"
            assert result.j == oracle_nearest(i, d, a)


# 2**63 - a is a multiple of db, so the first rejected i lands exactly on 2**63
GUARD_EDGES = [(999_999_999_983, 1_037_011_573_115), (3_036_863_999_177, 2_036_863_999_178)]
# far past the guard, where binary32's t_hat with no margin puts the interval
# wholly above i, so compensate clips it to one point
GUARD_ABOVE_I = (2**33 + 2**9 + 1, 2**31 - 1, 2**31, "approximate", "binary32", 0)


@pytest.mark.parametrize(
    "d, a, rejected",
    [
        *(pytest.param(d, a, None, id=f"{d}-{a}") for d, a in GUARD_EDGES),
        pytest.param(*GUARD_ABOVE_I[1:3], GUARD_ABOVE_I, id="interval-above-i"),
    ],
)
def test_compensate_product_guard_edge(d, a, rejected):
    db = d if d < a else d - a
    i = (2**63 - 1 - a) // db  # the largest i with i*db + a < 2**63
    if rejected is None:
        assert (i + 1) * db + a == 2**63
        rejected = (i + 1, d, a)
    for method in METHODS:
        for precision in PRECISIONS:
            assert compensate(i, d, a, method, precision).j == oracle_nearest(i, d, a)
    assert rejected[0] * db + a >= 2**63
    with pytest.raises(OverflowRisk):
        compensate(*rejected)


# the theoretical coefficients, evaluated in working precision, can lie
# inside the exact ones, so their interval can miss the clock
THEORETICAL_MISSES = [
    (BINARY32, 1074754113, 268486546, 536870881),  # the hardware route
    (FloatFormat(5), 5764, 123, 180),
    (FloatFormat(5), 17921, 70, 114),
    (FloatFormat(6), 1463, 83, 138),
    (FloatFormat(7), 1593, 135, 157),
]


@pytest.mark.parametrize("fmt, i, d, a", THEORETICAL_MISSES)
def test_theoretical_interval_can_miss_and_practical_does_not(fmt, i, d, a):
    theoretical = compensate(i, d, a, "theoretical", fmt)
    assert theoretical.bounds_violated
    assert theoretical.j == oracle_nearest(i, d, a)
    assert not compensate(i, d, a, "practical", fmt).bounds_violated


def test_theoretical_miss_on_the_hardware_route_in_the_kernel():
    i, d, a = 1074754113, 268486546, 536870881
    assert candidate_interval(i, d, a, "theoretical", BINARY32)[:2] == (537479391, 537479681)
    assert oracle_nearest(i, d, a) == 537479364
    cases = CaseArrays(case_table({(d, a): 1}))
    for method, missed in (("theoretical", True), ("practical", False)):
        j, _, violated, fallback = compensate_triples(cases, i, method, BINARY32, DEFAULT_EPS_COEFF)
        assert (j[0], violated[0], fallback[0]) == (537479364, missed, False), method


@pytest.mark.parametrize(
    "i, d, a, clock",
    [
        (1160363541, 511326562, 512469398, 1157775864),
        (546697957, 351301012, 360814917, 532282720),
        (1119352504, 674968831, 683078701, 1106062962),
    ],
)
def test_approximate_binary32_misses_at_the_default_margin(i, d, a, clock):
    # eps_coeff = 1e-7 leaves the binary32 interval short of these clocks;
    # the walk still returns the exact clock and reports the miss
    assert oracle_nearest(i, d, a) == clock
    res = compensate(i, d, a, "approximate", "binary32")
    assert (res.j, res.bounds_violated) == (clock, True)
    cases = CaseArrays(case_table({(d, a): 1}))
    j, _, violated, fallback = compensate_triples(cases, i, "approximate", BINARY32, DEFAULT_EPS_COEFF)
    assert (j[0], violated[0], fallback[0]) == (clock, True, False)


@pytest.mark.parametrize("p", range(4, 9))
def test_tiny_formats_practical_never_misses(p):
    # the emulated route in precisions 4..8, where the bracket is widest
    fmt = FloatFormat(p)
    c_lo, c_hi = theoretical_coefficients(fmt)
    rng = random.Random(p)
    for _ in range(5000):
        a = rng.randint(1, 1000)
        d = rng.randint(1, 2 * a - 1)
        i = rng.randint(0, 2**20)
        result = compensate(i, d, a, "practical", fmt)
        assert not result.bounds_violated and result.j == oracle_nearest(i, d, a), (i, d, a)
        db = d % a
        t = Fraction(i * db, a)
        assert c_lo * t <= emulated_clock_estimate(i, db, a, fmt) <= c_hi * t, (i, db, a)


def _missed(i, d, a, method, precision, eps_coeff=DEFAULT_EPS_COEFF):
    """Whether the exact walked clock lies outside compensate's candidate interval."""
    if d == a:
        return False
    db = d if d < a else d - a
    box = candidate_interval(i, db, a, method, precision, eps_coeff)
    return not box.lb <= oracle_nearest(i, db, a) <= box.ub


# at i ~ 2^53 a slope near 1/2 makes binary32 and approximate intervals about
# 1e9 wide, so those run on a slope of 2^-30 or without a margin
COMPENSATE_ROUTE_EDGES = [
    *(
        (i, d, a, PRECISIONS, DEFAULT_EPS_COEFF)
        for i in (0, 1, 2**24 - 1, 2**24, 2**24 + 1)
        for d, a in ((1, 1), (1, 2), (3, 2))
    ),
    *(
        (i, *case)
        for i in (2**53 - 1, 2**53, 2**53 + 1)
        for case in (
            (1, 1, PRECISIONS, DEFAULT_EPS_COEFF),
            (1, 2, ("binary64",), 0),
            (3, 2, ("binary64",), 0),
            (1, 2**30, PRECISIONS, 0),
            (2**30 + 1, 2**30, PRECISIONS, 0),
        )
    ),
]


@pytest.mark.parametrize("i, d, a, precisions, eps_coeff", COMPENSATE_ROUTE_EDGES)
def test_compensate_at_route_edges(i, d, a, precisions, eps_coeff):
    for method in METHODS:
        for precision in precisions:
            result = compensate(i, d, a, method, precision, eps_coeff)
            assert result.j == oracle_nearest(i, d, a)
            assert result.bounds_violated == _missed(i, d, a, method, precision, eps_coeff)
            if d != a:
                box = candidate_interval(i, d % a, a, method, precision, eps_coeff)
                assert result.iterations == min(box.ub, i) - max(box.lb, 0)


@pytest.mark.parametrize("edge", [2**53 - 1, 2**53, 2**53 + 1])
@pytest.mark.parametrize("precision", PRECISIONS)
def test_candidate_interval_route_rule_at_2_to_the_53(monkeypatch, edge, precision):
    # the hardware route runs exactly when max(i, A) < 2^53, with D < A
    hardware_calls = []
    hardware = bounds._hardware_estimate

    def spy(*args):
        hardware_calls.append(args)
        return hardware(*args)

    monkeypatch.setattr(bounds, "_hardware_estimate", spy)
    fmt = resolve_format(precision)
    for i, d, a in ((edge, 1, 2**30), (2**30, 1, edge), (2**30, edge - 1, edge), (edge, edge - 2, edge - 1)):
        hardware_calls.clear()
        t_hat = emulated_clock_estimate(i, d, a, fmt)
        for method in ("theoretical", "practical"):
            c_lo, c_hi = rounded_coefficients(method, fmt)
            box = candidate_interval(i, d, a, method, fmt)
            assert (box.lb, box.ub) == (math.floor(c_lo * t_hat), math.ceil(c_hi * t_hat))
        assert len(hardware_calls) == (2 if max(i, a) < 2**53 else 0), (i, d, a)


def test_naive_identity():
    assert naive_compensate(10**8, 10**6, 10**6, "binary32") == 10**8


def test_naive_frozen_values():
    # one correct rounding of the exact ratio, then floor
    assert naive_compensate(10**9, 10**6, 999950, "binary32") == 1000049984
    assert naive_compensate(10**9, 10**6, 999950, "binary64") == 1000050002
    assert (10**9 * 10**6) // 999950 == 1000050002


def test_naive_validation():
    with pytest.raises(InvalidInput):
        naive_compensate(-1, 1, 1)
    with pytest.raises(InvalidInput):
        naive_compensate(1, 1, 0)


def test_naive_binary64_matches_hardware():
    rng = random.Random(314)
    for _ in range(2000):
        i = rng.randint(0, 10**9)
        d = rng.randint(1, 10**6)
        a = rng.randint(1, 10**6)
        if i * d >= 2**53:
            continue
        assert naive_compensate(i, d, a, "binary64") == math.floor(float(i * d) / a)


@st.composite
def _compensate_inputs(draw):
    """(i, D, A) for any case, i spread over the 2^24 and 2^53 route switches."""
    i = draw(
        st.one_of(
            st.integers(min_value=0, max_value=2**40),
            *(st.integers(min_value=e - 64, max_value=e + 64) for e in (2**24, 2**53)),
        )
    )
    # (i + 1) * a < 2^63 keeps i*delta_b + A under refine's product guard
    a = draw(st.integers(min_value=2, max_value=min(2**31, (2**63 - 1) // (i + 1))))
    case = draw(st.sampled_from(("case1", "identity", "case2")))
    if case == "identity":
        return i, a, a
    d = draw(st.integers(min_value=1, max_value=a - 1))
    return i, (d if case == "case1" else a + d), a


@settings(max_examples=300, deadline=None)
@given(
    inputs=_compensate_inputs(),
    method=st.sampled_from(METHODS),
    precision=st.sampled_from(("binary32", "binary64", FloatFormat(11))),
    eps_coeff=st.sampled_from((DEFAULT_EPS_COEFF, 0)),
)
# approximate intervals wholly above i, which clip to empty
@example((2**26 + 5, 2**31 - 1, 2**31), "approximate", "binary32", 0)
@example((16380, 16773120, 16773121), "approximate", FloatFormat(11), DEFAULT_EPS_COEFF)
# an approximate interval below 0 at a tiny i, and a practical one inside [0, i]
@example((2, 1, 3), "approximate", "binary32", DEFAULT_EPS_COEFF)
@example((10**9, 10**6 - 7, 10**6), "practical", "binary32", DEFAULT_EPS_COEFF)
def test_compensate_record_equals_interval_then_walk(inputs, method, precision, eps_coeff):
    i, d, a = inputs
    result = compensate(i, d, a, method, precision, eps_coeff)
    assert type(result) is CompResult
    if d == a:
        label = format_label(resolve_format(precision))
        expected = CompResult(i, 0, method, label, "identity", False)
    else:
        db = d if d < a else d - a
        box = candidate_interval(i, db, a, method, precision, eps_coeff)
        lb, ub = max(box.lb, 0), min(box.ub, i)
        if lb > ub:
            # clipped empty: a miss, the exact clock without a walk
            walked = RefineResult(oracle_nearest(i, db, a), 0, True)
        else:
            walked = refine(i, a, db, (lb, ub))
            assert type(walked) is RefineResult
        expected = CompResult(
            walked.j + (0 if d < a else i),
            walked.iterations,
            box.method,
            box.precision,
            "case1" if d < a else "case2",
            walked.bounds_violated,
        )
    assert result._asdict() == expected._asdict()
    assert result.j == oracle_nearest(i, d, a)
