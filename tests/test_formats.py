"""Format descriptions and optimal per-operation error bounds."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcomp.bounds import CandidateInterval
from skewcomp.compensator import compensate
from skewcomp.experiment import StatSummary
from skewcomp.formats import (
    BINARY32,
    BINARY64,
    ErrorBudget,
    FloatFormat,
    error_budget,
    format_label,
    op_error_bound,
    relative_errors,
    resolve_format,
    unit_roundoff,
)
from skewcomp.rationals import round_to_format


def test_format_validation():
    with pytest.raises(ValueError):
        FloatFormat(1)
    # _replace builds through _make, which checks like the constructor
    with pytest.raises(ValueError):
        BINARY32._replace(precision=1)
    assert BINARY32._replace(precision=53) == BINARY64
    with pytest.raises(TypeError):
        FloatFormat(10, 3)  # binary formats only: there is no base field


@pytest.mark.parametrize("precision", [24.0, 11.0, True, np.int64(24), Fraction(24), "24"])
def test_format_precision_must_be_an_int(precision):
    # 24.0 would compare and hash equal to binary32 and then fail deep in
    # the exact arithmetic, so every constructor path rejects it up front
    with pytest.raises(TypeError, match="need an int precision"):
        FloatFormat(precision)
    with pytest.raises(TypeError, match="need an int precision"):
        BINARY32._replace(precision=precision)


def test_resolve_format():
    assert resolve_format("binary32") is BINARY32
    assert resolve_format("binary64") is BINARY64
    assert resolve_format(BINARY32) is BINARY32
    custom = FloatFormat(11)
    assert resolve_format(custom) is custom
    with pytest.raises(ValueError):
        resolve_format("binary128")


def test_format_label():
    assert format_label(BINARY32) == "binary32"
    assert format_label(BINARY64) == "binary64"
    assert format_label(FloatFormat(11)) == "b2p11"
    # the label is looked up by value, not identity
    assert format_label(FloatFormat(24)) == "binary32"


@pytest.mark.parametrize(
    "record, field, text",
    [
        (FloatFormat(11), "precision", "FloatFormat(precision=11)"),
        (
            CandidateInterval(3, 5, "practical", "binary32"),
            "lb",
            "CandidateInterval(lb=3, ub=5, method='practical', precision='binary32')",
        ),
        (
            compensate(7, 3, 5),
            "j",
            "CompResult(j=4, iterations=1, method='practical', precision='binary32', "
            "case='case1', bounds_violated=False)",
        ),
        (
            StatSummary(-1, 0, Fraction(-1, 2), 4),
            "count",
            "StatSummary(min=-1, max=0, avg=Fraction(-1, 2), count=4)",
        ),
    ],
    ids=["FloatFormat", "CandidateInterval", "CompResult", "StatSummary"],
)
def test_records_are_immutable_with_field_repr(record, field, text):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert repr(record) == text


def test_unit_roundoff_values():
    assert unit_roundoff(BINARY32) == Fraction(1, 2**24)
    assert unit_roundoff(BINARY64) == Fraction(1, 2**53)


def test_op_error_bound_table():
    u = unit_roundoff(BINARY32)
    assert op_error_bound("rounding", "E1", BINARY32) == u / (1 + u)
    assert op_error_bound("rounding", "E2", BINARY32) == u
    assert op_error_bound("multiply", "E1", BINARY32) == u / (1 + u)
    assert op_error_bound("multiply", "E2", BINARY32) == u
    e1 = u - 2 * u * u
    assert op_error_bound("divide", "E1", BINARY32) == e1
    assert op_error_bound("divide", "E2", BINARY32) == e1 / (1 + e1)


def test_op_error_bound_rejects_unknown():
    with pytest.raises(ValueError):
        op_error_bound("add", "E1", BINARY32)
    with pytest.raises(ValueError):
        op_error_bound("divide", "E3", BINARY32)


@pytest.mark.parametrize("p", range(2, 64))
def test_divide_bound_beats_multiply_bound(p):
    fmt = FloatFormat(p)
    assert op_error_bound("divide", "E1", fmt) < op_error_bound("multiply", "E1", fmt)


def test_relative_errors_zero_and_exact():
    assert relative_errors(Fraction(0), BINARY32) == (0, 0)
    assert relative_errors(Fraction(3, 4), BINARY32) == (0, 0)


def test_relative_errors_at_midpoint():
    u = unit_roundoff(BINARY32)
    # 1 + u rounds to 1, so the distances are u/(1+u) and u exactly,
    # attaining both optimal bounds at once
    assert relative_errors(1 + u, BINARY32) == (u / (1 + u), u)


def test_relative_errors_one_third():
    e1, e2 = relative_errors(Fraction(1, 3), BINARY32)
    assert e1 == Fraction(1, 33554432)
    assert e2 == Fraction(1, 33554433)
    assert round_to_format(Fraction(1, 3), BINARY32) == Fraction(11184811, 33554432)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
def test_realized_errors_within_optimal_bounds(num, den):
    t = Fraction(num, den)
    e1, e2 = relative_errors(t, BINARY32)
    assert e1 <= op_error_bound("rounding", "E1", BINARY32)
    assert e2 <= op_error_bound("rounding", "E2", BINARY32)


def test_error_budget_fields():
    budget = error_budget(BINARY32)
    assert isinstance(budget, ErrorBudget)
    r = op_error_bound("rounding", "E1", BINARY32)
    assert budget.round_i == budget.round_d == budget.round_a == r
    assert budget.divide == op_error_bound("divide", "E1", BINARY32)
    assert budget.multiply == op_error_bound("multiply", "E1", BINARY32)
    for value in (budget.round_i, budget.round_d, budget.round_a, budget.divide, budget.multiply):
        assert 0 <= value < 1
