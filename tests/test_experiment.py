"""Sample generation and table reproduction at experiment scale."""

import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casetable import case_table
from skewcomp.bounds import InvalidInput
from skewcomp import experiment
from skewcomp.compensator import naive_compensate, oracle_nearest
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
    table = sample_cases(seed, n, D, range_ppm)
    got = list(zip(zip(table.D.tolist(), table.A.tolist()), table.weight.tolist()))
    assert got == sorted(Counter((D, A) for _, A in want).items())


# range_ppm 0, 1e-9, 1 and 2 draw from one 32-bit word per attempt, 100
# from an aligned pair (k = 38)
@pytest.mark.parametrize("seed", [0, 42, -3, 2**40 + 7])
@pytest.mark.parametrize("range_ppm", [0, Fraction(1, 10**9), 1, 2, 100])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_draws_match_stdlib_randint(seed, range_ppm, n):
    assert_matches_reference(seed, n, 10**6, range_ppm)


@pytest.mark.parametrize("range_ppm", [Fraction(1, 10**9), 100])
def test_draws_match_stdlib_randint_across_blocks(range_ppm):
    # more accepted draws than one block of _BLOCK = 2**15 attempts holds
    n = 70_000
    assert n > experiment._BLOCK
    assert_matches_reference(42, n, 10**6, range_ppm)


def traced_peak(draw, *args):
    """Peak bytes tracemalloc sees during draw(*args), after a warm-up draw."""
    draw(1, 10, *args[2:])  # numpy's imports are not the draw's memory
    tracemalloc.start()
    try:
        draw(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [10**5, 4 * 10**5])
def test_draw_memory_is_flat_in_n(n):
    # one block's buffers at a time: 1.13 MiB at both sizes, 3.77 MiB with
    # the per-block uint64 copies of the raw words
    assert traced_peak(sample_cases, 42, n, 10**6) < 1.5 * 2**20


def test_wide_draw_memory_is_the_case_columns():
    # 78,503 distinct cases at D = 1e9, merged and returned as int64
    # columns: 3.07 MiB, against 12.95 MiB through a Counter of (D, A) tuples
    assert traced_peak(sample_cases, 42, 10**5, 10**9) < 4 * 2**20


def test_table_rows_release_their_arrays():
    # compensation_experiment on 78,503 cases at D = 1e9: 10.64 MiB when each
    # row's arrays and fallback end with its row call, 11.99 MiB when the
    # previous row's j, iterations, violated and fallback outlive it
    # a warm-up call, as numpy's lazy imports are not the rows' memory
    compensation_experiment(sample_cases(1, 10, 10**9))
    cases = sample_cases(42, 10**5, 10**9)
    tracemalloc.start()
    try:
        compensation_experiment(cases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.3 * 2**20


def test_draws_match_stdlib_randint_beyond_int64():
    # 2 * 999983 * 1e14 overflows int64, so A is computed on Python ints
    assert_matches_reference(7, 3000, 999983, 10**5)


@pytest.mark.parametrize("range_ppm", [100, 0])
def test_case_table_merges_blocks_beyond_int64(range_ppm):
    # D >= 2**63, so sample_cases merges its blocks' offsets as Python ints;
    # at range 0 every draw is 0, but 2 * d alone is past int64
    assert_matches_reference(42, 70_000, 2**64 + 13, range_ppm)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**64),
    n=st.integers(0, 2000),
    steps=st.integers(0, 5 * 10**14),
    D=st.integers(1, 10**12),
)
def test_draws_match_stdlib_randint_property(seed, n, steps, D):
    # the least A, at m = -steps, by reference_draws' own formula
    scale = 10**15
    lowest = (2 * (D * scale - D * steps) + scale) // (2 * scale)
    if 2 * lowest <= D:
        for sampler in (generate_samples, sample_cases):
            with pytest.raises(ValueError, match="range_ppm must keep every A above D/2"):
                sampler(seed, n, D, Fraction(steps, 10**9))
    else:
        assert_matches_reference(seed, n, D, Fraction(steps, 10**9))


def test_range_must_stay_below_half_the_clock():
    # case 2 decomposition needs A > D/2 for every A the range can draw
    boundaries = [
        # at D = 1e6 the least A is 500001 at 499999.5 ppm and 500000 just above it
        (10**6, Fraction(4_999_995, 10), Fraction(499_999_500_000_001, 10**9)),
        (10**6, Fraction(4_999_995, 10), Fraction(499_999_999_999_999, 10**9)),
        # at D = 2 the least A is 2 at 250000 ppm, and 1 = D/2 at 300000
        (2, 250_000, 300_000),
    ]
    for sampler in (generate_samples, sample_cases):
        # above 500000 ppm, or at it with an even D, the least A is D/2 or less
        with pytest.raises(ValueError, match="range_ppm must keep every A above D/2, got 500000 at D=1000000$"):
            sampler(1, 10, range_ppm=500_000)
        with pytest.raises(ValueError, match="range_ppm must keep every A above D/2, got .* at D=3$"):
            sampler(1, 10, 3, Fraction(500_000_000_000_001, 10**9))
        for D, accepted, rejected in boundaries:
            with pytest.raises(ValueError, match=f"range_ppm must keep every A above D/2, got .* at D={D}$"):
                sampler(1, 10, D, rejected)
            sampler(1, 10, D, accepted)
    for D, accepted, _ in boundaries:
        assert all(2 * s.A > D for s in generate_samples(1, 300, D, accepted))
    # at an odd D, 500000 ppm draws a least A of (D + 1) / 2, above D/2
    for D in (3, 999983):
        assert_matches_reference(1, 300, D, 500_000)
    assert min(s.A for s in generate_samples(1, 300, 3, 500_000)) == 2


@pytest.mark.parametrize("sampler", [generate_samples, sample_cases])
def test_range_messages_name_the_rule_past_the_digit_limit(sampler):
    # str() of an int over 4,300 digits raises, so the message says what the value is instead
    over = "a number over Python's 4300-digit limit"
    cases = [
        (10, 10**6, Fraction(10**5000), f"range_ppm must keep every A above D/2, got {over} at D=1000000"),
        (10, 10**5000, 600_000, f"range_ppm must keep every A above D/2, got 600000 at D={over}"),
        (10, 10**6, Fraction(1, 10**5000), f"range_ppm must be a nonnegative multiple of 1e-9, got {over}"),
        (10, -(10**5000), 100, f"need D > 0, got {over}"),
        (-(10**5000), 10**6, 100, f"need n >= 0, got {over}"),
    ]
    for n, D, range_ppm, message in cases:
        with pytest.raises(ValueError) as info:
            sampler(1, n, D, range_ppm)
        assert str(info.value) == message


@pytest.mark.parametrize("sampler", [generate_samples, sample_cases])
@pytest.mark.parametrize(
    "n, D, names",
    [
        (10, True, "int, bool"),
        (10**5, 1e6, "int, float"),
        (10, "x", "int, str"),
        (10.0, 10**6, "float, int"),
        (False, 10**6, "bool, int"),
    ],
    ids=["bool-D", "float-D", "str-D", "float-n", "bool-n"],
)
def test_samplers_take_only_int_n_and_D(sampler, n, D, names):
    # a bool D would draw a table for D = 1, and a float n would fail inside numpy
    with pytest.raises(TypeError, match=f"^need int n, D, got {names}$"):
        sampler(42, n, D)


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


def test_sampling_needs_a_positive_clock():
    for draw, D in ((sample_cases, 0), (generate_samples, -1)):
        with pytest.raises(ValueError, match=f"need D > 0, got {D}"):
            draw(1, 5, D)


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
    row_one = bounds_experiment(case_table({case: 1}), i_list=(10**7,))[0]
    row_tri = bounds_experiment(case_table({case: 3}), i_list=(10**7,))[0]
    assert row_one.dlb.min == row_tri.dlb.min
    assert row_one.dlb.max == row_tri.dlb.max
    assert row_one.dlb.avg == row_tri.dlb.avg
    assert row_tri.dlb.count == 3


def test_single_sample_bounds_row_matches_direct_computation():
    from skewcomp.bounds import candidate_interval, interval_deltas, reference_interval

    D, A = 10**6, 999950
    i = 10**8
    rows = bounds_experiment(case_table({(D, A): 1}), i_list=(i,))
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
    assert naive.iter.min == naive.iter.max == 0
    assert naive.violations == 0
    for r in rows[1:]:
        assert r.violations == 0
        assert r.err.count == 200


def test_compensation_err_convention():
    # err = floor of the double-precision estimate minus the algorithm's j
    D, A = 10**6, 999900
    i = 10**8
    rows = compensation_experiment(case_table({(D, A): 1}), i_list=(i,))
    base = naive_compensate(i, D, A, "binary64")
    naive_row = rows[0]
    assert naive_row.err.min == base - naive_compensate(i, D, A, "binary32")
    practical_row = rows[1]
    assert practical_row.err.min == base - oracle_nearest(i, D, A)


def test_experiments_take_only_a_case_table():
    # sample_cases gives the CaseTable; assert_matches_reference checks it
    # holds the same draws as generate_samples
    for population in (generate_samples(5, 300), {(999, 1000): 1}):
        for experiment in (bounds_experiment, compensation_experiment):
            with pytest.raises(TypeError, match="must be a CaseTable"):
                experiment(population, (10**7,))


def test_empty_population_rejected():
    for empty in (case_table({}), sample_cases(1, 0)):
        with pytest.raises(ValueError):
            bounds_experiment(empty, i_list=(10**6,))
        with pytest.raises(ValueError):
            compensation_experiment(empty, i_list=(10**6,))


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError, match="weights must be positive"):
        bounds_experiment(case_table({(10**6, 10**6 + 1): 2, (10**6, 10**6): 0}), i_list=(10**6,))
    # a fractional weight would be truncated in the case arrays but not in the
    # count, and a bool weight breaks the int rule
    for weight in (Fraction(3, 2), 2.0, True):
        with pytest.raises(ValueError, match="weights must be positive"):
            compensation_experiment(case_table({(10**6, 10**6 + 1): weight}), (10**6,))


@pytest.mark.parametrize(
    "population, i", [({(-1, 5): 1}, 10), ({(3, 5): 1}, -1), ({(3, 0): 1}, 10)]
)
def test_invalid_inputs_raise_before_any_row(population, i):
    # the baselines run first, so naive_compensate's check fires, not compensate's
    with pytest.raises(ValueError, match="need i, D, A >= 0 and A > 0"):
        compensation_experiment(case_table(population), (i,))


@pytest.mark.parametrize("experiment", [bounds_experiment, compensation_experiment])
def test_negative_eps_coeff_rejected(experiment):
    # the margin 1 + eps_hat = 1 - 1e-6 is still positive at i = 1e6
    with pytest.raises(ValueError, match="eps_coeff >= 0"):
        experiment(case_table({(10**6, 10**6 + 1): 1}), (10**6,), eps_coeff=Fraction(-1, 10**12))


def test_skew_out_of_range_raises_at_the_first_walk_row():
    # D = 0 passes the naive baseline, which gives its exact 0
    for population in ({(10, 5): 1}, {(0, 5): 1}):
        with pytest.raises(InvalidInput):
            compensation_experiment(case_table(population), (10,))
