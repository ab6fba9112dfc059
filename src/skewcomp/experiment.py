"""Sample generation and table-style statistics for the two experiments.

One experiment compares candidate intervals against the exact reference
(bound deltas), the other compares compensated clocks against the
binary64 floor baseline (errors and iteration counts).  Samples draw a
skew uniformly from a lattice with 1e-9 ppm steps, which keeps every
draw an exact rational and makes runs reproducible from the seed alone.

The experiments take a CaseTable population and evaluate each distinct
case once.  They split the cases to the remainder slope once, as arrays,
and evaluate one table row at a time in the private batch kernel, which
gives exactly what candidate_interval, reference_interval, compensate
and naive_compensate give per case; only the cases it cannot prove run
per case.  With the default 100 ppm range there are only 201 possible A
values, so sample_cases draws the weighted case table directly: it
reproduces random.Random(seed).randint draw for draw from the
generator's raw 32-bit words, read in place in numpy blocks of 2**15
attempts merged into sorted case columns, so its memory is flat in the
number of samples and even 1e7 samples take about a second.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import compress
from math import gcd
from numbers import Rational
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .bounds import DEFAULT_EPS_COEFF, candidate_interval, interval_deltas, reference_interval
from .compensator import compensate, naive_compensate
from .formats import BINARY64, format_label, resolve_format

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CaseTable",
    "ClockSample",
    "StatSummary",
    "BoundsRow",
    "CompRow",
    "generate_samples",
    "sample_cases",
    "bounds_experiment",
    "compensation_experiment",
    "TABLE2_CONFIGS",
    "TABLE3_ALGORITHMS",
    "DEFAULT_I_LIST",
    "DEFAULT_D",
    "DEFAULT_N",
    "DEFAULT_SEED",
    "DEFAULT_RANGE_PPM",
]

DEFAULT_D = 10**6
DEFAULT_N = 10**5
DEFAULT_SEED = 42
DEFAULT_RANGE_PPM = 100
DEFAULT_I_LIST = (10**6, 10**7, 10**8, 10**9)

TABLE2_CONFIGS = (
    ("theoretical", "binary64"),
    ("theoretical", "binary32"),
    ("practical", "binary32"),
    ("approximate", "binary32"),
)

TABLE3_ALGORITHMS = (
    ("naive", "binary32"),
    ("practical", "binary32"),
    ("approximate", "binary32"),
)

# ppm values live on a lattice with this many steps per ppm
_PPM_STEPS = 10**9
# lattice steps per unit of skew
_SKEW_STEPS = _PPM_STEPS * 10**6
# rejection-sampling attempts drawn per numpy block
_BLOCK = 1 << 15


class CaseTable(NamedTuple):
    """(D, A) cases in int columns of one length, with their positive int weights."""

    D: np.ndarray
    A: np.ndarray
    weight: np.ndarray


class ClockSample(NamedTuple):
    """One draw: D reference ticks vs A local ticks per interval."""

    D: int
    A: int
    skew_ppm: Fraction


class StatSummary(NamedTuple):
    min: int
    max: int
    avg: Fraction
    count: int


class BoundsRow(NamedTuple):
    method: str
    precision: str
    i: int
    dlb: StatSummary
    dub: StatSummary


class CompRow(NamedTuple):
    algorithm: str
    precision: str
    i: int
    err: StatSummary
    iterations: StatSummary
    violations: int


def generate_samples(
    seed: int,
    n: int,
    D: int = DEFAULT_D,
    range_ppm: Rational = DEFAULT_RANGE_PPM,
) -> list[ClockSample]:
    """n samples with A = round-half-up(D * (1 + skew_ppm * 1e-6)).

    Deterministic for a fixed seed: in lattice steps, the skews are the
    successive values of random.Random(seed).randint(-reach, reach), where
    reach = range_ppm * 1e9.
    """
    samples = []
    for steps, offsets in _draw_blocks(seed, n, D, range_ppm):
        for m, offset in zip(steps.tolist(), offsets.tolist()):
            samples.append(ClockSample(D=D, A=D + offset, skew_ppm=Fraction(m, _PPM_STEPS)))
    return samples


def sample_cases(
    seed: int,
    n: int,
    D: int = DEFAULT_D,
    range_ppm: Rational = DEFAULT_RANGE_PPM,
) -> CaseTable:
    """The cases and counts of Counter((s.D, s.A) for s in generate_samples(...)) as a CaseTable.

    The samples are never built, so time is linear in n and memory in the
    number of distinct cases: each block merges into sorted arrays of A - D.
    """
    import numpy as np

    # |A - D| < D / 2, so A fits int64 too, which sorts far faster than Python ints
    dtype = np.int64 if D < 2**62 else object
    values, counts = np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64)
    for _, offsets in _draw_blocks(seed, n, D, range_ppm):
        new, weights = np.unique(offsets.astype(dtype, copy=False), return_counts=True)
        at = np.searchsorted(values, new)
        seen = at < len(values)
        seen[seen] = values[at[seen]] == new[seen]
        counts[at[seen]] += weights[seen]
        values = np.insert(values, at[~seen], new[~seen])
        counts = np.insert(counts, at[~seen], weights[~seen])
    values += D
    return CaseTable(D=np.full(len(values), D, dtype=dtype), A=values, weight=counts)


def _draw_blocks(
    seed: int, n: int, D: int, range_ppm: Rational
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(lattice steps m, A - D) of the n draws, in order, block by block.

    randint(-reach, reach) is -reach plus getrandbits(k) rejection-sampled
    below 2 * reach + 1, with k = (2 * reach + 1).bit_length().  For k <= 32 an
    attempt is one generator word w, giving w >> (32 - k); for k <= 64 it
    is an aligned word pair (w0, w1), giving w0 | (w1 >> (64 - k)) << 32.
    getrandbits(32 * W) returns the next W words least significant first,
    so its little-endian bytes, read in place as <u4 words or <u8 pairs
    w0 | w1 << 32, are the raw word stream.  Surplus attempts past the
    n-th accepted draw are discarded with the generator.
    numpy is imported here, so that only drawing a population needs it.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if D <= 0:
        raise ValueError(f"need D > 0, got {D}")
    limit = Fraction(range_ppm) * _PPM_STEPS
    if limit < 0 or limit.denominator != 1:
        raise ValueError(f"range_ppm must be a nonnegative multiple of 1e-9, got {range_ppm}")
    if limit >= _PPM_STEPS * 500_000:
        # case 2 decomposes D/A into (D - A)/A, which needs A > D/2
        raise ValueError(f"range_ppm must be below 500000, got {range_ppm}")
    import numpy as np

    reach = int(limit)
    span = 2 * reach + 1
    k = span.bit_length()  # at most 50 below the range cap
    words = 1 if k <= 32 else 2
    # A - D = round-half-up(D * m / _SKEW_STEPS), with the fraction reduced
    g = gcd(D, _SKEW_STEPS)
    d, s = D // g, _SKEW_STEPS // g
    # int64 is exact while |2 * d * m + s| stays below 2**63
    exact_int64 = 2 * d * reach + s < 2**63
    rng = random.Random(seed)
    left = n
    while left:
        # more than half of all attempts are accepted, so 2 * left usually suffice
        attempts = min(_BLOCK, 2 * left)
        raw = rng.getrandbits(32 * words * attempts).to_bytes(4 * words * attempts, "little")
        raw = np.frombuffer(raw, dtype=f"<u{4 * words}")
        if words == 1:
            value = np.right_shift(raw, np.uint64(32 - k), dtype=np.uint64)
        else:
            value = raw >> np.uint64(96 - k)
            value <<= np.uint64(32)
            value |= raw & np.uint64(0xFFFFFFFF)
        # one compress; the accepted attempts are below 2**50, so int64 in place
        steps = value[value < span][:left].view(np.int64)
        del raw, value  # the block's buffers go before the next draw
        steps -= reach
        left -= len(steps)
        m = steps if exact_int64 else steps.astype(object)
        yield steps, (2 * d * m + s) // (2 * s)


def _summary(values, cases) -> StatSummary:
    """min, max and weighted mean of one integer per case."""
    # Python ints: an int64 dot product could overflow
    total = sum(map(mul, values.tolist(), cases.weights))
    return StatSummary(
        min=int(values.min()),
        max=int(values.max()),
        avg=Fraction(total, cases.count),
        count=cases.count,
    )


def _fill(values, fallback, scalar):
    """The kernel's per-case arrays with each fallback case k set from scalar(k).

    scalar(k) returns one Python value per array, in order; the arrays
    then become object arrays, so no value is truncated.
    """
    if not fallback.any():
        return values
    values = [v.astype(object) for v in values]
    for k in fallback.nonzero()[0].tolist():
        for v, value in zip(values, scalar(k)):
            v[k] = value
    return values


def bounds_experiment(
    population: CaseTable,
    i_list: Sequence[int] = DEFAULT_I_LIST,
    configs: Sequence[tuple[str, str]] = TABLE2_CONFIGS,
    eps_coeff=DEFAULT_EPS_COEFF,
) -> list[BoundsRow]:
    """Bound deltas per (method, precision, i) over the population.

    The population is a CaseTable such as sample_cases returns; each
    distinct case is evaluated once, a whole row at a time, and the cases
    the batch kernel cannot prove go through candidate_interval and
    reference_interval.

    Case 2 samples (D > A) are decomposed to the remainder slope for the
    candidate and the reference alike, so deltas compare like with like.
    """
    from . import batch

    cases = batch.CaseArrays(population)

    def deltas(k):
        # called inside the loop below, for its current row
        D, A = cases.pair(k)
        db = D - A if D >= A else D
        cand = candidate_interval(i, db, A, method, precision, eps_coeff)
        return interval_deltas(cand, reference_interval(i, db, A, fmt))

    rows = []
    for method, precision in configs:
        fmt = resolve_format(precision)
        for i in i_list:
            lb, ub, fallback = batch.candidate_ends(cases, i, method, fmt, eps_coeff)
            ref_lb, ref_ub, ref_fallback = batch.reference_ends(cases, i, fmt)
            dlb, dub = _fill((ref_lb - lb, ub - ref_ub), fallback | ref_fallback, deltas)
            rows.append(
                BoundsRow(
                    method=method,
                    precision=format_label(fmt),
                    i=i,
                    dlb=_summary(dlb, cases),
                    dub=_summary(dub, cases),
                )
            )
            # released now, not when the next row reassigns them, so they do
            # not sit beside that row's kernel temporaries
            del ref_lb, ref_ub, dlb, dub
    return rows


def compensation_experiment(
    population: CaseTable,
    i_list: Sequence[int] = DEFAULT_I_LIST,
    algorithms: Sequence[tuple[str, str]] = TABLE3_ALGORITHMS,
    eps_coeff=DEFAULT_EPS_COEFF,
) -> list[CompRow]:
    """Compensation error and iteration stats per (algorithm, i).

    err = floor(t_hat in binary64) - j, so err = 0 means agreement with
    the double-precision floor baseline.  Interval misses are counted in
    violations, never silently dropped.  Each row, and the binary64
    baseline for each i, is one pass of the batch kernel, with
    compensate or naive_compensate for the cases it cannot prove.
    """
    import numpy as np

    from . import batch

    cases = batch.CaseArrays(population)

    def naive_row(i, fmt):
        j, fallback = batch.naive_floors(cases, i, fmt)
        (j,) = _fill((j,), fallback, lambda k: (naive_compensate(i, *cases.pair(k), fmt),))
        return j

    def walk(k):
        # called inside the loop below, for its current row
        res = compensate(i, *cases.pair(k), algorithm, precision, eps_coeff)
        return res.j, res.iterations, res.bounds_violated

    baseline = {i: naive_row(i, BINARY64) for i in i_list}
    rows = []
    for algorithm, precision in algorithms:
        fmt = resolve_format(precision)
        for i in i_list:
            if algorithm == "naive":
                j = naive_row(i, fmt)
                iterations, violated = np.zeros_like(j), np.zeros(len(j), dtype=bool)
            else:
                *triple, fallback = batch.compensate_triples(cases, i, algorithm, fmt, eps_coeff)
                j, iterations, violated = _fill(triple, fallback, walk)
            rows.append(
                CompRow(
                    algorithm=algorithm,
                    precision=format_label(fmt),
                    i=i,
                    err=_summary(baseline[i] - j, cases),
                    iterations=_summary(iterations, cases),
                    violations=sum(compress(cases.weights, violated.tolist())),
                )
            )
    return rows
