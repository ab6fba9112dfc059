"""Acceptance gates for the desk-scale reproduction.

One test per headline criterion, run against the default population
(n = 10^5, D = 10^6, seed 42; integer A = round-half-up(D*(1+skew)),
with the skew uniform on the 1e-9 ppm lattice within +/-100 ppm) at
i in {10^6, 10^7, 10^8, 10^9}.  `pytest -v tests/test_acceptance.py`
prints one pass/fail line per gate.

The whole module is expected to finish in well under two minutes.
"""

import random
from fractions import Fraction
from math import floor

import pytest

from skewcomp.bounds import candidate_interval, theoretical_coefficients
from skewcomp.compensator import compensate, oracle_nearest
from skewcomp.experiment import (
    bounds_experiment,
    compensation_experiment,
    sample_cases,
)
from skewcomp.formats import BINARY32, FloatFormat, unit_roundoff
from skewcomp.rationals import is_in_format, round_to_format

I_LIST = (10**6, 10**7, 10**8, 10**9)


@pytest.fixture(scope="module")
def population():
    return sample_cases(42, 10**5, 10**6, 100)


@pytest.fixture(scope="module")
def bounds_rows(population):
    rows = bounds_experiment(population, I_LIST)
    return {(r.method, r.precision, r.i): r for r in rows}


@pytest.fixture(scope="module")
def comp_rows(population):
    rows = compensation_experiment(population, I_LIST)
    return {(r.algorithm, r.precision, r.i): r for r in rows}


def test_ac01_binary64_theoretical_bounds_are_exact(bounds_rows):
    """Double precision leaves no slack: every delta is exactly zero."""
    for i in I_LIST:
        row = bounds_rows[("theoretical", "binary64", i)]
        stats = (row.dlb.min, row.dlb.max, row.dlb.avg, row.dub.min, row.dub.max, row.dub.avg)
        assert stats == (0, 0, 0, 0, 0, 0), f"i={i}: nonzero deltas {stats}"


def test_ac02_binary32_theoretical_lower_end_is_tighter_at_scale(bounds_rows):
    """Single-precision evaluation of the exact coefficients moves the
    lower end once the pipeline error crosses an integer: at 1e8 and 1e9
    some candidate lower end lies above the reference's (negative dlb),
    tighter than the exact bound, with the 1e9 gap within a factor of
    three of 125.  A tighter side is not a miss; only violations and
    bounds_violated report one."""
    for i in (10**8, 10**9):
        row = bounds_rows[("theoretical", "binary32", i)]
        assert row.dlb.min < 0, f"i={i}: expected a lower end tighter than the reference, min={row.dlb.min}"
    magnitude = -bounds_rows[("theoretical", "binary32", 10**9)].dlb.min
    assert Fraction(125, 3) <= magnitude <= 375, f"1e9 lower-end gap {magnitude}"


def test_ac03_practical_bounds_never_violate(bounds_rows):
    """The headline guarantee: on every sample at every scale the
    practical binary32 interval contains the reference interval."""
    for i in I_LIST:
        row = bounds_rows[("practical", "binary32", i)]
        assert row.dlb.min >= 0, f"i={i}: lower end tighter than the reference, dlb.min={row.dlb.min}"
        assert row.dub.min >= 0, f"i={i}: upper end tighter than the reference, dub.min={row.dub.min}"


def test_ac04_practical_average_slack_at_1e9(bounds_rows):
    row = bounds_rows[("practical", "binary32", 10**9)]
    assert 30 <= row.dlb.avg <= 90, f"dlb.avg={float(row.dlb.avg):.4f}"
    assert 15 <= row.dub.avg <= 45, f"dub.avg={float(row.dub.avg):.4f}"


def _expected_average_error(population, i):
    """Weighted mean over the population of the error a correct walk
    must show: the binary64 floor baseline minus round-half-up(i*D/A),
    both on plain Python ints.  `(i * D) / A` is the correctly rounded
    binary64 quotient, which is what the baseline evaluates."""
    total = sum(
        weight * (floor((i * D) / A) - (2 * i * D + A) // (2 * A))
        for D, A, weight in zip(*(column.tolist() for column in population))
    )
    return Fraction(total, sum(population.weight.tolist()))


def test_ac05_algorithm_error_range_and_average(population, comp_rows):
    """Both walk-based algorithms stay within {-1, 0} of the floor
    baseline everywhere, and their average error is exactly the one
    the population implies.

    The walk returns round-half-up(i*D/A), so against the binary64
    floor baseline the error is -1 on exactly the samples whose
    fractional part of i*D/A is at least 1/2, and 0 elsewhere.  The
    expected average is computed here from that definition, without
    skewcomp.  On this population A is an integer in [999900, 1000100],
    so frac(i*D/A) is at most ~k^2/A * i/10^6 (~0.01 at 10^6, ~0.1 at
    10^7): the average is 0 there and negative only at 10^8 and 10^9.
    The paper's -0.497 needs fractional parts spread over [0, 1), which
    this population does not have.
    """
    for algorithm in ("practical", "approximate"):
        for i in I_LIST:
            row = comp_rows[(algorithm, "binary32", i)]
            assert row.err.min >= -1 and row.err.max <= 0, (
                f"{algorithm} i={i}: err range [{row.err.min}, {row.err.max}]"
            )
    expected = {i: _expected_average_error(population, i) for i in I_LIST}
    # A walk returning the floor would show 0 everywhere; the gate can
    # only tell it from round-to-nearest where the expected average is
    # nonzero.
    for i in (10**8, 10**9):
        assert expected[i] < 0, f"i={i}: expected average {expected[i]} cannot detect a floor walk"
    averages = {
        (algorithm, i): (expected[i], comp_rows[(algorithm, "binary32", i)].err.avg)
        for algorithm in ("practical", "approximate")
        for i in I_LIST
    }
    assert all(exp == act for exp, act in averages.values()), (
        "average error (expected, actual) per (algorithm, i): "
        + ", ".join(f"{key}: ({exp}, {act})" for key, (exp, act) in averages.items())
    )


def test_paper_scale_error_range_and_average():
    """The ac05 gate on a paper-scale population, D = 10^9.

    There A - D reaches 10^5, so the fractional parts of i*D/A spread
    over [0, 1) at every i and the expected average is near -1/2
    everywhere, not 0 as on the default population.  It is computed by
    the same helper as in ac05, and no constant is pinned.
    """
    cases = sample_cases(42, 10**4, 10**9, 100)
    assert len(cases.A) == 9739
    walks = (("practical", "binary32"), ("approximate", "binary32"))
    rows = compensation_experiment(cases, I_LIST, walks)
    expected = {i: _expected_average_error(cases, i) for i in I_LIST}
    assert all(value < 0 for value in expected.values()), expected
    for row in rows:
        assert row.err.min >= -1 and row.err.max <= 0, (
            f"{row.algorithm} i={row.i}: err range [{row.err.min}, {row.err.max}]"
        )
    averages = {(row.algorithm, row.i): (expected[row.i], row.err.avg) for row in rows}
    assert all(exp == act for exp, act in averages.values()), (
        "average error (expected, actual) per (algorithm, i): "
        + ", ".join(f"{key}: ({exp}, {act})" for key, (exp, act) in averages.items())
    )


def test_wide_skew_approximate_binary32_misses_where_practical_does_not():
    """The failure the practical bounds fix, at D = 10^9 and +/-400000 ppm.

    There the approximate binary32 interval misses the exact clock on 1
    of 2e5 samples at 10^8 and on 46 at 10^9, while the practical one
    misses none; README's `table3 --D 1e9 -n 2e5 --range-ppm 400000`
    shows the same rows.
    """
    cases = sample_cases(42, 2 * 10**5, 10**9, 400000)
    walks = (("practical", "binary32"), ("approximate", "binary32"))
    rows = compensation_experiment(cases, (10**8, 10**9), walks)
    violations = {(row.algorithm, row.i): row.violations for row in rows}
    assert violations == {
        ("practical", 10**8): 0,
        ("practical", 10**9): 0,
        ("approximate", 10**8): 1,
        ("approximate", 10**9): 46,
    }


def test_ac06_naive_binary32_error_growth(comp_rows):
    naive = {i: comp_rows[("naive", "binary32", i)].err for i in I_LIST}
    for i in (10**6, 10**7):
        assert (naive[i].min, naive[i].max) == (0, 0), (
            f"i={i}: naive err range [{naive[i].min}, {naive[i].max}]"
        )
    worst = {i: max(abs(naive[i].min), abs(naive[i].max)) for i in I_LIST}
    assert worst[10**8] > 1, f"1e8 worst error {worst[10**8]}"
    assert worst[10**9] > worst[10**8], f"growth broken: {worst}"


def test_ac07_iteration_comparison(comp_rows):
    for i in (10**8, 10**9):
        practical = comp_rows[("practical", "binary32", i)].iter.avg
        approximate = comp_rows[("approximate", "binary32", i)].iter.avg
        assert practical > approximate, (
            f"i={i}: practical {float(practical):.2f} <= approximate {float(approximate):.2f}"
        )
    target = 2 + 2 * Fraction(1, 10**7) * 10**9  # margin width at the default eps
    approx_1e9 = comp_rows[("approximate", "binary32", 10**9)].iter.avg
    assert abs(approx_1e9 - target) <= Fraction(target, 10), (
        f"approximate avg at 1e9 is {float(approx_1e9):.2f}, want {float(target)} +/- 10%"
    )


def test_ac08_pipeline_stays_inside_coefficient_bracket():
    """10^5 random nonnegative rational triples through the binary32
    pipeline: c_lo * t <= t_hat <= c_hi * t with exact comparison."""
    c_lo, c_hi = theoretical_coefficients(BINARY32)
    rng = random.Random(2025)
    violations = 0
    for _ in range(10**5):
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
        y = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4))
        z = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        x_r = round_to_format(x, BINARY32)
        y_r = round_to_format(y, BINARY32)
        z_r = round_to_format(z, BINARY32)
        q = round_to_format(y_r / z_r, BINARY32)
        t_hat = round_to_format(x_r * q, BINARY32)
        t = x * y / z
        if not c_lo * t <= t_hat <= c_hi * t:
            violations += 1
    assert violations == 0


def test_ac09_walk_equals_oracle():
    """10^4 random triples with 0 < D < 2A under every method/precision:
    the walk result matches the exact nearest integer whether or not the
    interval missed, a miss is reported exactly when the walked clock lies
    outside the candidate interval, and the two-component split is exact."""
    rng = random.Random(777)
    checked = 0
    for _ in range(10**4):
        a = rng.randint(1, 10**6)
        d = rng.randint(1, 2 * a - 1)
        i = rng.randint(0, 10**7)
        want = oracle_nearest(i, d, a)
        if d > a:  # two-component split: shift by i and walk the remainder
            assert want == i + oracle_nearest(i, d - a, a)
        db = d if d < a else d - a
        walked = oracle_nearest(i, db, a) if db else None
        for method in ("theoretical", "practical", "approximate"):
            for precision in ("binary32", "binary64"):
                result = compensate(i, d, a, method, precision)
                missed = False
                if db:
                    box = candidate_interval(i, db, a, method, precision)
                    missed = not box.lb <= walked <= box.ub
                assert result.bounds_violated == missed, (
                    f"{method}/{precision} i={i} D={d} A={a}: violated={result.bounds_violated}"
                )
                if not result.bounds_violated:
                    assert result.j == want, (
                        f"{method}/{precision} i={i} D={d} A={a}: {result.j} != {want}"
                    )
                    checked += 1
                # a miss falls back to the exact division, so j stays exact
                assert result.j == want, (
                    f"{method}/{precision} i={i} D={d} A={a}: {result.j} != {want} (missed)"
                )
    assert checked > 0


def test_ac10_coefficient_operands_are_representable():
    for p in (11, 24, 53):
        fmt = FloatFormat(p)
        u = unit_roundoff(fmt)
        assert is_in_format(1 - u, fmt), f"1-u not representable at p={p}"
        assert is_in_format(1 + 2 * u, fmt), f"1+2u not representable at p={p}"
        assert not is_in_format(1 + u, fmt), f"1+u unexpectedly representable at p={p}"
