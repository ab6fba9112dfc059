"""experiment's table kernel against the scalar functions, case by case.

Every value the kernel accepts must equal what candidate_interval,
reference_interval, compensate and naive_compensate return for that
case; the cases it marks as fallback are the ones the experiments hand
to those functions.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casetable import case_table
from skewcomp.bounds import (
    DEFAULT_EPS_COEFF,
    METHODS,
    candidate_interval,
    interval_deltas,
    reference_interval,
    theoretical_coefficients,
)
from skewcomp.compensator import compensate, naive_compensate, oracle_nearest
from skewcomp.experiment import (
    DEFAULT_I_LIST,
    CaseArrays,
    CaseTable,
    StatSummary,
    TABLE2_CONFIGS,
    TABLE3_ALGORITHMS,
    bounds_experiment,
    candidate_ends,
    compensate_triples,
    compensation_experiment,
    naive_floors,
    reference_ends,
    sample_cases,
)
from skewcomp.formats import BINARY32, BINARY64, FloatFormat, resolve_format

P11 = FloatFormat(11)
# compensate walks up to the interval width; wider intervals (binary32 near
# 2**53, large margins) are checked against its contract instead
WALK_LIMIT = 10**4
EDGE_I = (0, 1, 2**24 - 1, 2**24, 2**24 + 1, 10**9, 2**53 - 1, 2**53, 2**53 + 1)
EDGE_A = (1, 2, 3, 2**24 - 1, 2**24 + 1, 10**6, 10**9, 2**53 - 1, 2**53, 2**53 + 1)
# 1e-30 and 1/3 can leave 1 + eps_hat inexact in float64 but its parts w + f
# exact; 1e20 makes w >= 2**53 and 1e-400 puts f below float64's normal range,
# rows the kernel declines; 1/6 gives f = 1/2 at i = 3 mod 6, ties at half-integer t_hat
EPS_COEFFS = (
    DEFAULT_EPS_COEFF,
    Fraction(0),
    Fraction(-1, 10**6),
    Fraction(1, 10**30),
    Fraction(1, 3),
    Fraction(10**20),
    Fraction(1, 10**400),
    Fraction(1, 6),
)


def _accepted(fallback):
    return np.flatnonzero(~fallback).tolist()


def _compensate_contract(i, D, A, method, fmt, eps_coeff):
    """compensate's (j, iterations, bounds_violated) without its walk, for D != A."""
    db = D - A if D > A else D
    cand = candidate_interval(i, db, A, method, fmt, eps_coeff)
    low, high = max(cand.lb, 0), min(cand.ub, i)
    clock = oracle_nearest(i, db, A)
    return clock + (i if D > A else 0), max(high - low, 0), not low <= clock <= high


def _slope(D, A):
    """The remainder slope (db, A) the kernel splits (D, A) to."""
    return D - A if D >= A else D, A


def _check_row(pairs, i, fmt, eps_coeff):
    """Assert each accepted kernel value equals the scalar one; return the fallback masks.

    The masks follow the sorted cases.
    """
    cases = CaseArrays(case_table(dict.fromkeys(pairs, 1)))
    pairs = sorted(pairs)
    masks = {}
    for method in METHODS:
        lb, ub, fallback = candidate_ends(cases, i, method, fmt, eps_coeff)
        for k in _accepted(fallback):
            cand = candidate_interval(i, *_slope(*pairs[k]), method, fmt, eps_coeff)
            assert (lb[k], ub[k]) == (cand.lb, cand.ub), (method, pairs[k])
        masks[method] = fallback
        j, iterations, violated, fallback = compensate_triples(cases, i, method, fmt, eps_coeff)
        for k in _accepted(fallback):
            if iterations[k] <= WALK_LIMIT:
                res = compensate(i, *pairs[k], method, fmt, eps_coeff)
                want = (res.j, res.iterations, res.bounds_violated)
            else:
                want = _compensate_contract(i, *pairs[k], method, fmt, eps_coeff)
            assert (j[k], iterations[k], violated[k]) == want, (method, pairs[k])
        masks["compensate", method] = fallback
    lb, ub, fallback = reference_ends(cases, i, fmt)
    for k in _accepted(fallback):
        ref = reference_interval(i, *_slope(*pairs[k]), fmt)
        assert (lb[k], ub[k]) == (ref.lb, ref.ub), pairs[k]
    masks["reference"] = fallback
    return masks


@st.composite
def _case(draw, i):
    """One (D, A) pair, biased to the edges the kernel must get right."""
    a = draw(st.sampled_from(EDGE_A) | st.integers(min_value=1, max_value=2**53 + 2))
    kind = draw(st.sampled_from(("any", "identity", "steepest", "near", "tie", "guard")))
    if kind == "identity":
        return a, a
    if kind == "steepest":  # D = 2A - 1
        return 2 * a - 1, a
    if kind == "near":  # D = A -/+ 1
        return a + draw(st.sampled_from((-1, 1))), a
    if kind == "tie" and i > 0:
        # 2*i*db = A mod 2A: A = 2m with i/m odd and db odd
        m = draw(st.sampled_from((i, i & -i)))
        a = 2 * m
        db = draw(st.integers(min_value=0, max_value=m - 1)) * 2 + 1
        return db + draw(st.sampled_from((0, a))), a
    if kind == "guard" and i > 0:
        # db at the largest value with 2*i*db + A < 2**63, or one above it
        a = max(a, 2**62 // i + 2)
        db = (2**63 - 1 - a) // (2 * i) + draw(st.sampled_from((-1, 0, 1)))
        return db + draw(st.sampled_from((0, a))), a
    return draw(st.integers(min_value=1, max_value=2 * a - 1)), a


@st.composite
def _rows(draw):
    i = draw(st.sampled_from(EDGE_I) | st.integers(min_value=0, max_value=2**54))
    pairs = draw(st.lists(_case(i), min_size=1, max_size=6, unique=True))
    fmt = draw(st.sampled_from((BINARY32, BINARY64, P11)))
    return sorted(pairs), i, fmt, draw(st.sampled_from(EPS_COEFFS))


@settings(max_examples=400, deadline=None)
@given(row=_rows())
def test_batch_matches_scalar(row):
    _check_row(*row)


@pytest.mark.parametrize("i", EDGE_I)
@pytest.mark.parametrize("fmt", (BINARY32, BINARY64))
def test_batch_matches_scalar_at_route_edges(i, fmt):
    a = 10**9
    pairs = [(1, a), (a - 1, a), (a, a), (a + 1, a), (2 * a - 1, a), (5, 2**53 - 1)]
    masks = _check_row(pairs, i, fmt, DEFAULT_EPS_COEFF)
    on_route = i < 2**53
    for method in METHODS:
        if fmt == BINARY64 and i == 2**53 - 1 and method != "approximate":
            # (a - 1, a) and (2a - 1, a), both of slope (a - 1)/a, take t_hat
            # past 2**52, where every binary64 product is an integer and goes
            # per case; the masks follow the sorted pairs
            assert masks[method].tolist() == [False, False, True, False, False, True]
        else:
            assert not masks[method].any() if on_route else masks[method].all()


def _tie(i, p, s, mantissa):
    """(D, A) with i*D/A exactly halfway between mantissa * 2**s and the next p-bit value."""
    ratio = Fraction(2 * mantissa + 1, i) * Fraction(2) ** (s - 1)
    return ratio.numerator, ratio.denominator


def _check_naive(pairs, i, fmt):
    """Assert each accepted naive floor equals naive_compensate; return the fallback mask."""
    cases = CaseArrays(case_table(dict.fromkeys(pairs, 1)))
    pairs = sorted(pairs)
    j, fallback = naive_floors(cases, i, fmt)
    for k in _accepted(fallback):
        D, A = pairs[k]
        assert j[k] == naive_compensate(i, D, A, fmt), pairs[k]
        # the int64 bounds the kernel relies on, with A * 2**(s + 1) left to the product guard
        q = i * D // A
        s = max(q.bit_length() - fmt.precision, 0)
        assert i * D < 2**63 and q < 2**53 and A << (s + 1) < 2**63, pairs[k]
    return fallback.tolist()


@st.composite
def _naive_case(draw, i, p):
    """One (D, A) pair for naive_floors, biased to ties and the int64 edges."""
    a = draw(st.sampled_from(EDGE_A) | st.integers(min_value=1, max_value=2**53 + 2))
    kind = draw(st.sampled_from(("any", "identity", "steepest", "tie", "product")))
    if kind == "identity":
        return a, a
    if kind == "steepest":
        return 2 * a - 1, a
    if kind == "tie" and i > 0:
        # a midpoint (2M + 1) * 2**(s - 1) below 2i, for either branch of s
        s = draw(st.integers(min_value=-p, max_value=max((2 * i).bit_length() - p, -p)))
        limit = i * Fraction(2) ** (2 - s)  # 2M + 1 < limit keeps D < 2A
        high = min(2**p - 1, (-(-limit.numerator // limit.denominator) - 2) // 2)
        if high >= 2 ** (p - 1):
            return _tie(i, p, s, draw(st.integers(min_value=2 ** (p - 1), max_value=high)))
    if kind == "product" and i > 0:
        # the largest D with i*D < 2**63, or one above it
        d = (2**63 - 1) // i + draw(st.sampled_from((0, 1)))
        return d, max(a, d // 2 + 1)
    return draw(st.integers(min_value=1, max_value=2 * a - 1)), a


@st.composite
def _naive_rows(draw):
    i = draw(st.sampled_from(EDGE_I) | st.integers(min_value=0, max_value=2**54))
    fmt = draw(st.sampled_from((BINARY32, BINARY64, P11)))
    pairs = draw(st.lists(_naive_case(i, fmt.precision), min_size=1, max_size=6, unique=True))
    return sorted(pairs), i, fmt


@settings(max_examples=400, deadline=None)
@given(row=_naive_rows())
def test_naive_floors_match_scalar(row):
    pairs, i, fmt = row
    fallback = _check_naive(pairs, i, fmt)
    if i >= 2**53 or fmt == P11:
        assert all(fallback)


def _odd_multiple_tie(i, s, parity):
    """A binary64 tie below 2**53 with 1 - s low bits in A, so that i*D stays small."""
    c = (2**53 // i + 2) | 1
    mantissa = (i * c - 1) // 2
    return _tie(i, 53, s, mantissa + i * (mantissa % 2 != parity))


# (i, D, A, fmt, accepted)
NAIVE_EDGES = [
    # numpy's float64 i*D / A rounds these the other way
    (315, 4775644609732923, 3607501323898971, BINARY64, True),
    (457, 7664970424358466, 4670521978575759, BINARY64, True),
    (457, 12177314880440294, 6761886877717150, BINARY64, True),
    # ties with s < 0 and s >= 0, odd and even mantissa, and q + 1 = 2**k
    *((1000, *_tie(1000, 24, -14, m), BINARY32, True) for m in (2**23 + 1, 2**23 + 2, 2**24 - 1)),
    *((10**9, *_tie(10**9, 24, 3, m), BINARY32, True) for m in (2**23 + 1, 2**23 + 2, 2**24 - 1)),
    *((3001, *_odd_multiple_tie(3001, -40, parity), BINARY64, True) for parity in (0, 1)),
    # D/A = 3/2 at odd i in [2**53 / 3, 2**54 / 3): ties with s = 0
    *((i, 3, 2, BINARY64, True) for i in (2**53 // 3 + 1, 2**53 // 3 + 3)),
    # q = 0 at x = 1 - 2**-(p + 1), which rounds up to 1
    (1, *_tie(1, 24, -24, 2**24 - 1), BINARY32, True),
    (1, *_tie(1, 53, -53, 2**53 - 1), BINARY64, False),  # A = 2**54
    # D = A and D = 2A - 1
    *((10**9, D, 10**6, fmt, True) for D in (10**6, 2 * 10**6 - 1) for fmt in (BINARY32, BINARY64)),
    # i*D = 2**63 - 1 (7**2 * 73 * 127 * 337 * 92737 * 649657) and i*D = 2**63
    (7 * 7 * 73 * 127, 337 * 92737 * 649657, 337 * 92737 * 649657 - 1, BINARY32, True),
    (2**20, 2**43, 2**43 - 1, BINARY32, False),
    # the largest A * 2**(s + 1) on the kernel is far below 2**63: i*D bounds it
    (2**52 - 1, 2**10 - 1, 2**9 + 1, BINARY32, True),
    (2**53 - 1, 2**10 - 1, 2**9 + 1, BINARY32, False),  # q >= 2**53
    (10**9, 10**6 + 1, 10**6, P11, False),
]


@pytest.mark.parametrize("i, D, A, fmt, accepted", NAIVE_EDGES)
def test_naive_floors_at_the_edges(i, D, A, fmt, accepted):
    assert _check_naive([(D, A)], i, fmt) == [not accepted]


def _fallback_masks(pairs, i, fmt=BINARY32, eps_coeff=DEFAULT_EPS_COEFF):
    masks = _check_row(pairs, i, fmt, eps_coeff)
    return {key: mask.tolist() for key, mask in masks.items()}


def test_fallback_off_the_hardware_route():
    pairs = [(10**6, 10**6 + 1)]
    for i, fmt in ((2**53, BINARY32), (10**9, P11), (-1, BINARY64)):
        assert all(mask == [True] for mask in _fallback_masks(pairs, i, fmt).values())
    # A >= 2**53 falls back case by case
    masks = _fallback_masks([(10**6, 10**6 + 1), (2**53, 2**53 + 1)], 10**9)
    assert all(mask == [False, True] for mask in masks.values())


def test_fallback_outside_the_slope_domain():
    # D = 0 and D = 2A are handled by the scalar functions, which accept
    # the first for intervals and reject the second everywhere
    masks = _fallback_masks([(0, 10), (3, 10), (20, 10)], 10**6)
    assert all(mask == [True, False, True] for mask in masks.values())


def test_fallback_at_the_product_guard():
    i, a = 10**9, 10**10
    limit = (2**63 - 1 - a) // (2 * i)  # largest db with 2*i*db + A < 2**63
    masks = _fallback_masks([(limit, a), (limit + 1, a)], i)
    for key in ("reference", *(("compensate", method) for method in METHODS)):
        assert masks[key] == [False, True]
    for method in METHODS:
        assert masks[method] == [False, False]


def test_fallback_where_the_margin_parts_leave_float64():
    pairs = [(10**6, 10**6 + 1), (10**6, 10**6 - 1)]
    # 1 + eps_hat is not a float64 here, but its parts w + f are exact
    for eps_coeff, i in ((Fraction(1, 10**30), 10**9), (Fraction(1, 3), 1)):
        masks = _fallback_masks(pairs, i, BINARY64, eps_coeff)
        assert masks["approximate"] == masks["compensate", "approximate"] == [False, False]
    # w >= 2**53, and an f below float64's normal range
    for eps_coeff, i in ((Fraction(10**20), 10**9), (Fraction(1, 10**400), 1), (Fraction(1, 10**400), 10**9)):
        for fmt in (BINARY32, BINARY64):
            masks = _fallback_masks(pairs, i, fmt, eps_coeff)
            assert masks["approximate"] == masks["compensate", "approximate"] == [True, True]
            assert masks["practical"] == masks["reference"] == [False, False]


@pytest.mark.parametrize("fmt", (BINARY32, BINARY64))
def test_approximate_ends_at_a_tie(fmt):
    # i = 3 and D/A = 3/2 (slope 1/2) give t_hat = 1.5, and eps_coeff 1/6 gives
    # 1 + eps_hat = 1.5, so t_hat -/+ the margin are the integers 0 and 3
    pairs, eps_coeff = [(1, 2), (3, 2)], Fraction(1, 6)
    assert not _check_row(pairs, 3, fmt, eps_coeff)["approximate"].any()
    lb, ub, _ = candidate_ends(CaseArrays(case_table(dict.fromkeys(pairs, 1))), 3, "approximate", fmt, eps_coeff)
    assert lb.tolist() == [0, 0] and ub.tolist() == [3, 3]
    assert candidate_interval(3, 1, 2, "approximate", fmt, eps_coeff)[:2] == (0, 3)


def test_fallback_where_a_binary64_product_is_an_integer():
    # at i = 1e9, c * t_hat rounds to an integer for the theoretical c on
    # the first slope and the practical c on the other three
    i = 10**9
    population = {(i, i + k): 1 for k in (19, 28, 29, 30)}
    masks = _fallback_masks(list(population), i, BINARY64)
    assert masks["theoretical"] == [True, False, False, False]
    assert masks["practical"] == [False, True, True, True]
    configs = (("theoretical", "binary64"), ("practical", "binary64"))
    rows = bounds_experiment(case_table(population), (i,), configs)
    for row, (method, _) in zip(rows, configs, strict=True):
        deltas = [
            interval_deltas(candidate_interval(i, D, A, method, BINARY64), reference_interval(i, D, A, BINARY64))
            for D, A in sorted(population)
        ]
        dlb, dub = zip(*deltas)
        assert (row.method, row.dlb, row.dub) == (method, _stats(dlb, [1] * 4), _stats(dub, [1] * 4))


@pytest.mark.parametrize(
    "seed, n, D", [(42, 10**5, 10**6), (42, 10**4, 10**9)], ids=["readme", "D1e9"]
)
def test_no_fallback_on_table_populations(seed, n, D):
    cases = CaseArrays(sample_cases(seed, n, D, 100))
    for i in DEFAULT_I_LIST:
        assert not naive_floors(cases, i, BINARY64)[1].any()
        for method, precision in (*TABLE2_CONFIGS, *TABLE3_ALGORITHMS):
            fmt = resolve_format(precision)
            if method == "naive":
                assert not naive_floors(cases, i, fmt)[1].any()
                continue
            assert not candidate_ends(cases, i, method, fmt, DEFAULT_EPS_COEFF)[2].any()
            assert not compensate_triples(cases, i, method, fmt, DEFAULT_EPS_COEFF)[3].any()
            assert not reference_ends(cases, i, fmt)[2].any()


def test_experiments_merge_fallback_cases():
    # one case on the kernel, one with A >= 2**53 and one past the product
    # guard at i = 1e9; each row must equal its per-case scalar evaluation
    population = {(10**6, 10**6 + 7): 3, (2**53 + 12, 2**53 + 9): 2, (10**10, 10**10 + 1): 1}
    i_list = (10**6, 10**9)
    for row in bounds_experiment(case_table(population), i_list):
        deltas = []
        for (D, A), weight in sorted(population.items()):
            fmt = resolve_format(row.precision)
            db = D - A if D > A else D
            cand = candidate_interval(row.i, db, A, row.method, fmt)
            ref = reference_interval(row.i, db, A, fmt)
            deltas += [(ref.lb - cand.lb, cand.ub - ref.ub)] * weight
        assert row.dlb.min == min(d[0] for d in deltas) and row.dub.max == max(d[1] for d in deltas)
        assert row.dlb.avg == Fraction(sum(d[0] for d in deltas), len(deltas))
        assert row.dub.avg == Fraction(sum(d[1] for d in deltas), len(deltas))
    walks = [(a, p) for a, p in TABLE3_ALGORITHMS if a != "naive"]
    with pytest.raises(OverflowError, match="2\\*\\*63"):
        compensation_experiment(case_table(population), (10**9,), walks)
    # with eps_coeff 1e-400, the fraction of 1 + eps_hat is below float64's normal
    # range, so the approximate row at 1e8 runs on compensate alone, and its intervals miss
    for i, eps_coeff in ((10**6, DEFAULT_EPS_COEFF), (10**8, Fraction(1, 10**400))):
        rows = compensation_experiment(case_table(population), (i,), walks, eps_coeff)
        for row in rows:
            results = [
                (compensate(i, D, A, row.algorithm, row.precision, eps_coeff), weight)
                for (D, A), weight in sorted(population.items())
            ]
            assert row.iter.max == max(r.iterations for r, _ in results)
            assert row.iter.avg == Fraction(sum(r.iterations * w for r, w in results), 6)
            assert row.violations == sum(w for r, w in results if r.bounds_violated)
    assert rows[-1].algorithm == "approximate" and rows[-1].violations > 0
    # the naive row and its binary64 baseline merge the same cases; at 1e9 the
    # added case is past i*D < 2**63 with a nonzero err, so a dropped merge shows
    population[10**10 + 12345, 10**10] = 1
    for i in i_list:
        (row,) = compensation_experiment(case_table(population), (i,), [("naive", "binary32")])
        errs = [
            (naive_compensate(i, D, A, "binary64") - naive_compensate(i, D, A, "binary32"), weight)
            for (D, A), weight in sorted(population.items())
        ]
        assert (row.err.min, row.err.max) == (min(e for e, _ in errs), max(e for e, _ in errs))
        assert row.err.avg == Fraction(sum(e * w for e, w in errs), 7)
        assert row.iter.max == row.violations == 0


def _stats(values, weights):
    """The StatSummary of one value per case, each repeated by its weight."""
    spread = [v for v, w in zip(values, weights) for _ in range(w)]
    return StatSummary(min(spread), max(spread), Fraction(sum(spread), len(spread)), len(spread))


def test_experiments_fall_back_for_whole_rows():
    # i >= 2**53 and an 11-bit format are off the hardware route, so those
    # rows run every case on the scalar path; 1e6 in binary32 and binary64
    # stays on the kernel.  Each row must equal its per-case evaluation.
    population = {(3, 5): 2, (7, 5): 1}
    pairs, weights = list(population), list(population.values())
    i_list = (10**6, 2**53 + 1)
    configs = (("practical", "binary32"), ("approximate", "binary64"), ("theoretical", P11))
    rows = bounds_experiment(case_table(population), i_list, configs)
    assert len(rows) == len(configs) * len(i_list)
    for row, ((method, precision), i) in zip(rows, ((c, i) for c in configs for i in i_list)):
        fmt = resolve_format(precision)
        deltas = []
        for D, A in pairs:
            db = D - A if D > A else D
            cand = candidate_interval(i, db, A, method, fmt)
            deltas.append(interval_deltas(cand, reference_interval(i, db, A, fmt)))
        dlb, dub = zip(*deltas)
        assert (row.method, row.i, row.dlb, row.dub) == (method, i, _stats(dlb, weights), _stats(dub, weights))
    algorithms = (("naive", "binary32"), ("naive", P11), ("practical", "binary32"), ("approximate", P11))
    rows = compensation_experiment(case_table(population), i_list, algorithms)
    assert len(rows) == len(algorithms) * len(i_list)
    for row, ((algorithm, precision), i) in zip(rows, ((a, i) for a in algorithms for i in i_list)):
        base = [naive_compensate(i, D, A, BINARY64) for D, A in pairs]
        if algorithm == "naive":
            results = [(naive_compensate(i, D, A, precision), 0, False) for D, A in pairs]
        else:
            results = [compensate(i, D, A, algorithm, precision) for D, A in pairs]
            results = [(r.j, r.iterations, r.bounds_violated) for r in results]
        errs = [b - j for b, (j, _, _) in zip(base, results)]
        assert row.err == _stats(errs, weights)
        assert row.iter == _stats([n for _, n, _ in results], weights)
        assert row.violations == sum(w for (_, _, v), w in zip(results, weights) if v)


@pytest.mark.parametrize("weight", [1, 2**61, 2**62], ids=["small", "product-past-int64", "total-past-int64"])
def test_row_sums_stay_exact_for_huge_weights(weight):
    # at 2**61 a weight times a delta passes 2**63, and at 2**62 the total
    # weight itself does; the sums must not wrap as int64 would
    population = {(10**6, 10**6 + 101): weight, (10**6, 10**6 - 99): weight + 1}
    count = 2 * weight + 1
    (row,) = bounds_experiment(case_table(population), (10**9,), (("practical", "binary32"),))
    deltas = []
    for D, A in population:
        db = D - A if D > A else D
        deltas.append(interval_deltas(candidate_interval(10**9, db, A), reference_interval(10**9, db, A)))
    dlb = [d for d, _ in deltas]
    assert (row.dlb.count, row.dlb.min, row.dlb.max) == (count, min(dlb), max(dlb))
    assert row.dlb.avg == Fraction(dlb[0] * weight + dlb[1] * (weight + 1), count)
    (row,) = compensation_experiment(case_table(population), (10**9,), (("approximate", "binary32"),), eps_coeff=0)
    results = [compensate(10**9, D, A, "approximate", "binary32", 0) for D, A in population]
    assert row.iter.avg == Fraction(results[0].iterations * weight + results[1].iterations * (weight + 1), count)
    assert row.violations == results[0].bounds_violated * weight + results[1].bounds_violated * (weight + 1)


def _object_case(D, A):
    """Object D and A columns with the case (D, A) beside the int case (999, 1000)."""
    return np.array([D, 999], dtype=object), np.array([A, 1000], dtype=object), np.array([1, 1])


@pytest.mark.parametrize("experiment", [bounds_experiment, compensation_experiment])
@pytest.mark.parametrize(
    "columns, error, message",
    [
        ((np.array([10**6, 10**6]), np.array([10**6 + 1]), np.array([1, 1])), ValueError, "one length"),
        ((np.array([[10**6]]), np.array([[10**6 + 1]]), np.array([[1]])), ValueError, "1-D"),
        ((np.array(10**6), np.array(10**6 + 1), np.array(1)), ValueError, "1-D"),
        ((np.array([10**6.0]), np.array([10**6 + 1]), np.array([1])), TypeError, "D and A must hold ints"),
        ((np.array([10**6]), np.array([10**6 + 0.5], dtype=object), np.array([1])), TypeError, "D and A must hold ints"),
        # object columns, where int64 copies would read 999.5 as 999 and True as 1
        (_object_case(999.5, 1000), TypeError, "D and A must hold ints"),
        (_object_case(999, 1000.0), TypeError, "D and A must hold ints"),
        (_object_case(True, 2), TypeError, "D and A must hold ints"),
        (_object_case(np.int64(999), 1000), TypeError, "D and A must hold ints"),
        (_object_case(999, np.int32(1000)), TypeError, "D and A must hold ints"),
        ((np.array([10**6]), np.array([10**6 + 1]), np.array([1.0])), ValueError, "positive integers"),
        ((np.array([10**6]), np.array([10**6 + 1]), np.array([True])), ValueError, "positive integers"),
        ((np.array([10**6]), np.array([10**6 + 1]), np.array([0])), ValueError, "positive integers"),
    ],
    ids=[
        "ragged",
        "2-D",
        "0-d",
        "float64-D",
        "object-float-A",
        "float-D",
        "float-A",
        "bool-D",
        "int64-D",
        "int32-A",
        "float64-weight",
        "bool-weight",
        "zero-weight",
    ],
)
def test_case_table_columns_are_checked(columns, error, message, experiment):
    # a float64 column would be truncated into the int64 copies, a float
    # weight would reach the exact sums, and a column that is not 1-D would
    # reach them as rows or as no length at all
    with pytest.raises(error, match=message):
        experiment(CaseTable(*columns), (10**6,))


def test_rows_do_not_depend_on_insertion_order():
    # each case is read on its own and the row sums are exact, so neither the
    # order of a CaseTable's rows nor a case split over duplicate rows, whose
    # weights sum to its own, changes a row
    table = sample_cases(42, 300, 10**9)
    population = {(D, A): weight for D, A, weight in zip(*(column.tolist() for column in table))}
    population[min(population)] = 3
    population[2**53 + 12, 2**53 + 9] = 2  # a fallback case
    table = case_table(population)
    permuted = CaseTable(*(column[np.random.default_rng(7).permutation(len(table.A))] for column in table))
    # split the two heavy cases, one on the kernel and the fallback case
    heavy = np.flatnonzero(table.weight > 1)
    assert table.A[heavy].tolist() == [min(population)[1], 2**53 + 9]
    weight = table.weight.copy()
    weight[heavy] -= 1
    split = CaseTable(
        np.concatenate([table.D, table.D[heavy]]),
        np.concatenate([table.A, table.A[heavy]]),
        np.concatenate([weight, np.ones(len(heavy), dtype=object)]),
    )
    i_list = (10**6, 10**9)
    for experiment in (bounds_experiment, compensation_experiment):
        rows = experiment(table, i_list)
        assert experiment(permuted, i_list) == rows
        assert experiment(split, i_list) == rows


@pytest.mark.parametrize("experiment", [bounds_experiment, compensation_experiment])
@pytest.mark.parametrize("i", [True, False])
def test_table_rows_reject_a_bool_clock(experiment, i):
    # every scalar function rejects a bool i, so the kernel leaves it to them
    with pytest.raises(TypeError, match="need int i"):
        experiment(case_table({(999, 1000): 1}), (i,))


@pytest.mark.parametrize("experiment", [bounds_experiment, compensation_experiment])
def test_experiments_reject_an_unknown_method(experiment):
    # the kernel takes the row's coefficients from rounded_coefficients, which names the method
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        experiment(case_table({(999, 1000): 1}), (10**6,), (("nope", "binary32"),))


def test_interval_wholly_above_i_is_a_miss_in_kernel_and_scalar():
    # binary32's t_hat passes i + 1 with no margin, so the interval clips
    # empty: the kernel gives the triple in closed form, no fallback
    i, pair = 2**26 + 5, (2**31 - 1, 2**31)
    cases = CaseArrays(case_table({pair: 1}))
    j, iterations, violated, fallback = compensate_triples(cases, i, "approximate", BINARY32, 0)
    res = compensate(i, *pair, "approximate", "binary32", 0)
    assert not fallback[0]
    assert (j[0], iterations[0], violated[0]) == (res.j, res.iterations, res.bounds_violated) == (i, 0, True)
    (row,) = compensation_experiment(case_table({pair: 1}), (i,), (("approximate", "binary32"),), eps_coeff=0)
    assert row.violations == 1
    assert (row.iter.max, row.err.min) == (0, naive_compensate(i, *pair, "binary64") - res.j)


def _convergent_denominators(x: Fraction, limit: int) -> list[int]:
    """Denominators below limit of the continued-fraction convergents of x."""
    k_prev, k, found = 0, 1, []
    while x.denominator != 1:
        x = 1 / (x - x.numerator // x.denominator)
        k_prev, k = k, (x.numerator // x.denominator) * k + k_prev
        if k >= limit:
            break
        found.append(k)
    return found


@pytest.mark.parametrize("fmt", (BINARY32, BINARY64))
def test_reference_falls_back_next_to_an_integer(fmt):
    # with db/A = 1/2 and i = 2q, c*t = q + (c - 1)*q; for q a convergent
    # denominator of c - 1 that lies within 1e-13 of an integer, closer than
    # the float64 estimate can settle, and several such ends must fall back
    qs = {q for c in theoretical_coefficients(fmt) for q in _convergent_denominators(c - 1, 2**52)}
    fallbacks = sum(_check_row([(1, 2)], 2 * q, fmt, DEFAULT_EPS_COEFF)["reference"][0] for q in qs)
    assert fallbacks >= 2
