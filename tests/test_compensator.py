"""Integer walk refinement and the compensation entry points."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewcomp import batch, bounds
from skewcomp.bounds import (
    DEFAULT_EPS_COEFF,
    CandidateInterval,
    InvalidInput,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    reference_interval,
    rounded_coefficients,
)
from skewcomp.compensator import (
    CompResult,
    OverflowRisk,
    RefineResult,
    SkewOutOfRange,
    compensate,
    naive_compensate,
    oracle_nearest,
    refine,
)
from skewcomp.formats import BINARY32, FloatFormat, format_label, resolve_format

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
        oracle_nearest(1, 0, 2)
    with pytest.raises(InvalidInput):
        oracle_nearest(1, 1, 0)


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


# (i, delta_a, delta_b): an exact tie, a steep and a shallow slope, a tiny i
REFINE_SLOPES = [(2**20 + 1, 2, 1), (10**6 + 12_345, 999_998, 999_997), (10**9, 10**6 + 100, 100), (600, 3, 1)]
# every width below 40 mixes the stride bits; 2^k - 1, 2^k, 2^k + 1 flank each new top stride
STRIDE_WIDTHS = sorted({*range(40), *(2**k + e for k in range(2, 10) for e in (-1, 0, 1))})


@pytest.mark.parametrize("width", STRIDE_WIDTHS)
def test_refine_stride_walk_matches_unit_steps(width):
    for i, a, db in REFINE_SLOPES:
        j = oracle_nearest(i, db, a)
        # the clock at every offset inside the interval and one tick outside each side
        for offset in range(-1, width + 2):
            lb = j - offset
            got = refine(i, a, db, (lb, lb + width))
            assert tuple(got) == _unit_step_refine(i, a, db, lb, lb + width), (i, a, db, lb)
            assert got.j == j
            assert got.bounds_violated == (not 0 <= offset <= width)


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
    with pytest.raises(SkewOutOfRange):
        compensate(10, 0, 5)
    with pytest.raises(SkewOutOfRange):
        compensate(10, 10, 5)  # D = 2A
    with pytest.raises(SkewOutOfRange):
        compensate(10, 3, 0)
    with pytest.raises(InvalidInput):
        compensate(-1, 3, 5)


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


_INT_CALLS = {
    "identity": (compensate, (1, 1, 1)),
    "case1": (compensate, (1, 1, 2)),
    "case2": (compensate, (1, 3, 2)),
    "candidate": (candidate_interval, (1, 1, 2)),
    "reference": (reference_interval, (1, 1, 2)),
    "refine": (lambda i, b, a: refine(i, a, b, (0, 1)), (1, 1, 2)),
    "oracle": (oracle_nearest, (1, 1, 1)),
    "naive": (naive_compensate, (1, 1, 1)),
    "estimate": (clock_estimate, (1, 1, 2)),
    "estimate-wide": (clock_estimate, (2**53, 1, 2)),  # the emulated route
    "emulated": (lambda i, D, A: emulated_clock_estimate(i, D, A, BINARY32), (1, 1, 2)),
}


def _non_int_inputs():
    for name, (call, args) in _INT_CALLS.items():
        for slot, v in enumerate(args):
            kinds = {"float": float(v), "half": v + 0.5, "np.int64": np.int64(v)}
            if v == 1:
                kinds["bool"] = True
            for kind, value in kinds.items():
                yield pytest.param(call, args, slot, value, id=f"{name}-{'iDA'[slot]}-{kind}")


@pytest.mark.parametrize("call, args, slot, value", _non_int_inputs())
def test_non_int_inputs_raise_type_error(call, args, slot, value):
    # the integer arithmetic runs in whatever type comes in, so an integral
    # float such as 1.0 can give a wrong clock; only exact ints pass
    call(*args)
    args = list(args)
    args[slot] = value
    with pytest.raises(TypeError):
        call(*args)


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
@pytest.mark.parametrize(
    "d, a", [(999_999_999_983, 1_037_011_573_115), (3_036_863_999_177, 2_036_863_999_178)]
)
def test_compensate_product_guard_edge(d, a):
    db = d if d < a else d - a
    i = (2**63 - 1 - a) // db  # the largest i with i*db + a < 2**63
    assert (i + 1) * db + a == 2**63
    for method in METHODS:
        for precision in PRECISIONS:
            assert compensate(i, d, a, method, precision).j == oracle_nearest(i, d, a)
    with pytest.raises(OverflowRisk):
        compensate(i + 1, d, a)


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
    cases = batch.CaseArrays({(d, a): 1})
    for method, missed in (("theoretical", True), ("practical", False)):
        j, _, violated, fallback = batch.compensate_triples(cases, i, method, BINARY32, DEFAULT_EPS_COEFF)
        assert (j[0], violated[0], fallback[0]) == (537479364, missed, False), method


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
        naive_compensate(1, 0, 1)
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
