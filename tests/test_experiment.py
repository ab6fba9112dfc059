"""Sample generation and table reproduction at experiment scale."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcomp.compensator import SkewOutOfRange, naive_compensate, oracle_nearest
from skewcomp.experiment import (
    bounds_experiment,
    compensation_experiment,
    generate_samples,
    sample_cases,
)


def reference_draws(seed, n, D, range_ppm):
    """(lattice steps, A) per sample, drawn one stdlib randint at a time."""
    reach = int(Fraction(range_ppm) * 10**9)
    scale = 10**15  # lattice steps per unit of skew
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        m = rng.randint(-reach, reach)
        draws.append((m, (2 * (D * scale + D * m) + scale) // (2 * scale)))
    return draws


def assert_matches_reference(seed, n, D, range_ppm):
    want = reference_draws(seed, n, D, range_ppm)
    got = [(s.D, s.skew_ppm * 10**9, s.A) for s in generate_samples(seed, n, D, range_ppm)]
    assert got == [(D, m, A) for m, A in want]
    assert sample_cases(seed, n, D, range_ppm) == Counter((D, A) for _, A in want)


# range_ppm 0, 1e-9, 1 and 2 draw from one 32-bit word per attempt, 100
# from an aligned pair (k = 38)
@pytest.mark.parametrize("seed", [0, 42, -3, 2**40 + 7])
@pytest.mark.parametrize("range_ppm", [0, Fraction(1, 10**9), 1, 2, 100])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_draws_match_stdlib_randint(seed, range_ppm, n):
    assert_matches_reference(seed, n, 10**6, range_ppm)


@pytest.mark.parametrize("range_ppm", [Fraction(1, 10**9), 100])
def test_draws_match_stdlib_randint_across_blocks(range_ppm):
    # more accepted draws than one block of 2**16 attempts holds
    assert_matches_reference(42, 70_000, 10**6, range_ppm)


def test_draws_match_stdlib_randint_beyond_int64():
    # 2 * 999983 * 1e14 overflows int64, so A is computed on Python ints
    assert_matches_reference(7, 3000, 999983, 10**5)


def test_case_table_merges_blocks_beyond_int64():
    # D >= 2**63, so sample_cases merges its blocks' offsets as Python ints
    assert_matches_reference(42, 70_000, 2**64 + 13, 100)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**64),
    n=st.integers(0, 2000),
    steps=st.integers(0, 5 * 10**14 - 1),
    D=st.integers(1, 10**12),
)
def test_draws_match_stdlib_randint_property(seed, n, steps, D):
    assert_matches_reference(seed, n, D, Fraction(steps, 10**9))


def test_range_must_stay_below_half_the_clock():
    # case 2 decomposition needs A > D/2
    for sampler in (generate_samples, sample_cases):
        with pytest.raises(ValueError, match="range_ppm must be below 500000"):
            sampler(1, 10, range_ppm=500_000)
        sampler(1, 10, range_ppm=Fraction(499_999_999_999_999, 10**9))


def test_generation_is_deterministic():
    a = generate_samples(42, 500)
    b = generate_samples(42, 500)
    c = generate_samples(43, 500)
    assert a == b
    assert a != c
    assert len(a) == 500


def test_generated_fields():
    for s in generate_samples(7, 300, D=10**6, range_ppm=100):
        assert s.D == 10**6
        assert abs(s.skew_ppm) <= 100
        # skew lives on the 1e-9 ppm lattice
        assert (s.skew_ppm * 10**9).denominator == 1
        # A is the sample's own definition, re-derived exactly
        skew = s.skew_ppm / 10**6
        assert s.A == math.floor(s.D * (1 + skew) + Fraction(1, 2))
        assert abs(s.A - s.D) <= 100


def test_generation_edge_inputs():
    assert generate_samples(1, 0) == []
    for s in generate_samples(1, 50, range_ppm=0):
        assert s.A == s.D and s.skew_ppm == 0
    with pytest.raises(ValueError):
        generate_samples(1, 10, range_ppm=Fraction(1, 3))  # off the lattice
    with pytest.raises(ValueError):
        generate_samples(1, -5)


def test_bounds_rows_shape_and_order():
    rows = bounds_experiment(sample_cases(42, 200), i_list=(10**6, 10**7))
    keys = [(r.method, r.precision, r.i) for r in rows]
    assert keys == [
        ("theoretical", "binary64", 10**6),
        ("theoretical", "binary64", 10**7),
        ("theoretical", "binary32", 10**6),
        ("theoretical", "binary32", 10**7),
        ("practical", "binary32", 10**6),
        ("practical", "binary32", 10**7),
        ("approximate", "binary32", 10**6),
        ("approximate", "binary32", 10**7),
    ]
    for r in rows:
        assert r.dlb.count == 200
        assert r.dlb.min <= r.dlb.avg <= r.dlb.max
        assert isinstance(r.dlb.avg, Fraction)


def test_stats_are_count_weighted():
    case = (10**6, 10**6 + 37)
    row_one = bounds_experiment({case: 1}, i_list=(10**7,))[0]
    row_tri = bounds_experiment({case: 3}, i_list=(10**7,))[0]
    assert row_one.dlb.min == row_tri.dlb.min
    assert row_one.dlb.max == row_tri.dlb.max
    assert row_one.dlb.avg == row_tri.dlb.avg
    assert row_tri.dlb.count == 3


def test_single_sample_bounds_row_matches_direct_computation():
    from skewcomp.bounds import candidate_interval, interval_deltas, reference_interval

    D, A = 10**6, 999950
    i = 10**8
    rows = bounds_experiment({(D, A): 1}, i_list=(i,))
    # case 2: D > A decomposes to slope (D - A) / A
    db = D - A
    for row in rows:
        fmt = row.precision
        cand = candidate_interval(i, db, A, row.method, fmt)
        from skewcomp.formats import resolve_format

        ref = reference_interval(i, db, A, resolve_format(fmt))
        dlb, dub = interval_deltas(cand, ref)
        assert (row.dlb.min, row.dlb.max, row.dlb.avg) == (dlb, dlb, dlb)
        assert (row.dub.min, row.dub.max, row.dub.avg) == (dub, dub, dub)


def test_compensation_rows_shape():
    rows = compensation_experiment(sample_cases(42, 200), i_list=(10**6,))
    assert [(r.algorithm, r.precision, r.i) for r in rows] == [
        ("naive", "binary32", 10**6),
        ("practical", "binary32", 10**6),
        ("approximate", "binary32", 10**6),
    ]
    naive = rows[0]
    assert naive.iterations.min == naive.iterations.max == 0
    assert naive.violations == 0
    for r in rows[1:]:
        assert r.violations == 0
        assert r.err.count == 200


def test_compensation_err_convention():
    # err = floor of the double-precision estimate minus the algorithm's j
    D, A = 10**6, 999900
    i = 10**8
    rows = compensation_experiment({(D, A): 1}, i_list=(i,))
    base = naive_compensate(i, D, A, "binary64")
    naive_row = rows[0]
    assert naive_row.err.min == base - naive_compensate(i, D, A, "binary32")
    practical_row = rows[1]
    assert practical_row.err.min == base - oracle_nearest(i, D, A)


def test_experiments_take_only_a_case_mapping():
    # sample_cases gives the mapping; assert_matches_reference checks it
    # holds the same draws as generate_samples
    samples = generate_samples(5, 300)
    for experiment in (bounds_experiment, compensation_experiment):
        with pytest.raises(TypeError, match="mapping"):
            experiment(samples, (10**7,))


def test_empty_population_rejected():
    for empty in ({}, sample_cases(1, 0)):
        with pytest.raises(ValueError):
            bounds_experiment(empty, i_list=(10**6,))
        with pytest.raises(ValueError):
            compensation_experiment(empty, i_list=(10**6,))


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError, match="weights must be positive"):
        bounds_experiment({(10**6, 10**6 + 1): 2, (10**6, 10**6): 0}, i_list=(10**6,))
    # a fractional weight would be truncated in the case arrays but not in the count
    for weight in (Fraction(3, 2), 2.0):
        with pytest.raises(ValueError, match="weights must be positive"):
            compensation_experiment({(10**6, 10**6 + 1): weight}, (10**6,))


@pytest.mark.parametrize(
    "population, i", [({(0, 5): 1}, 10), ({(3, 5): 1}, -1), ({(3, 0): 1}, 10)]
)
def test_invalid_inputs_raise_before_any_row(population, i):
    # the baselines run first, so naive_compensate's check fires, not compensate's
    with pytest.raises(ValueError, match="need i >= 0, D > 0, A > 0"):
        compensation_experiment(population, (i,))


@pytest.mark.parametrize("experiment", [bounds_experiment, compensation_experiment])
def test_negative_eps_coeff_rejected(experiment):
    # the margin 1 + eps_hat = 1 - 1e-6 is still positive at i = 1e6
    with pytest.raises(ValueError, match="eps_coeff >= 0"):
        experiment({(10**6, 10**6 + 1): 1}, (10**6,), eps_coeff=Fraction(-1, 10**12))


def test_skew_out_of_range_raises_at_the_first_walk_row():
    with pytest.raises(SkewOutOfRange):
        compensation_experiment({(10, 5): 1}, (10,))
