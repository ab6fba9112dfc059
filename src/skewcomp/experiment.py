"""Sample generation, the table kernel and the statistics of the two experiments.

numpy is imported on the kernel route's first use, not with the module.

One experiment compares candidate intervals against the exact reference
(bound deltas), the other compares compensated clocks against the
binary64 floor baseline (errors and iteration counts).  Samples draw a
skew uniformly from a lattice with 1e-9 ppm steps, which keeps every
draw an exact rational and makes runs reproducible from the seed alone.
generate_samples and scalar_cases take the draws from
random.Random(seed).randint.  With the default 100 ppm range there are
only 201 possible A values, so sample_cases draws the weighted case
table directly: it reproduces those draws from the generator's raw
32-bit words, read in place in numpy blocks of 2**15 attempts merged
into sorted case columns, so its memory is flat in the number of
samples and even 1e7 samples take about a second.

Each experiment runs one loop over the rows of a case set.  A CaseTable,
such as sample_cases returns, becomes CaseArrays, the numpy kernel: each
(method, format, i) row is one pass over arrays of its distinct (D, A)
cases, split once to the remainder slope db/A with db < A.  Tables with
n * len(i_list) up to SCALAR_TABLE_LIMIT draw scalar_cases instead, whose
rows take the kernel's closed forms below on Python ints and floats.

Every value the kernel accepts equals what the scalar
candidate_interval, reference_interval, compensate and
naive_compensate return:

- t_hat runs in numpy float32/float64, with the same correctly rounded
  operations as clock_estimate's hardware route.
- A candidate end is floor/ceil of the exact c * t_hat or t_hat -/+ m.
  One float64 product is c * t_hat exactly for binary32 (24 + 24 bits),
  and for binary64 has its floor/ceil unless it rounds to an integer.
  With the margin m = 1 + eps_hat = w + f, w an integer and 0 <= f < 1,
  floor(t_hat - m) = floor(t_hat) - w - [t_hat - floor(t_hat) < f] and
  ceil(t_hat + m) = ceil(t_hat) + w + [ceil(t_hat) - t_hat < f]; a float
  minus its own floor or ceil is exact, and so is f, the fraction of a
  binary32 or binary64 eps_hat, while it is in float64's normal range.
- A reference end splits t = i*db/A into q + r/A on int64 and estimates
  the rest, r/A + (c - 1)*t, in float64 with a proven error bound.  It is
  accepted only where that bound leaves its floor/ceil certain.
- compensate's triple is refine's contract in closed form: the clock is
  (2*i*db + A) // (2A), iterations the clipped width (0 if the clip is
  empty), and the interval missed iff the clock lies outside it.
- naive_compensate's floor(RN(i*D/A)) rounds the int64 quotient and
  remainder of i*D by A with shifts and compares.  numpy's int64 / int64
  would round i*D to float64 before it divides, which is not exact:
  i = 315, D = 4775644609732923, A = 3607501323898971 gives 417 for the
  floor of its quotient, and 416 exactly.

A row reaches the kernel with each i and case held to the per-case rule,
and _eps_hat raises for a bad eps_coeff, so the kernel declines only for
range: a case it cannot prove is marked in the fallback mask it returns,
and the experiments evaluate it with the scalar functions, which also
raise whatever they raise for it.  That covers inputs off the hardware
route (i, D or A >= 2**53, formats other than binary32/binary64), cases
outside 0 < D < 2A, 2*i*db + A >= 2**63 (i*D >= 2**63 for the naive
floor, and its quotient >= 2**53), a binary64 c * t_hat that rounds to a
nonzero integer, an uncertain reference end, and an approximate margin
w + f with w >= 2**53 or f not exact in float64.

The scalar set's closed forms are exact, so it declines only for domain:
t_hat takes _hardware_estimate's operations, with each case's quotient
rounded once per format; a binary32 end is floor/ceil of its exact
product, and binary64 and approximate ends, the reference ends and the
naive floor (with int.bit_length for frexp) are integer floor divisions.
It sends to the scalar functions only i or A >= 2**53, formats other
than binary32/binary64 (but for the naive floor, exact in any format)
and, for compensate, 2*i*db + A >= 2**63.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import compress
from math import ceil, floor, gcd
from numbers import Rational
from operator import mul, sub
from typing import NamedTuple

from . import DEFAULT_D, DEFAULT_I_LIST, DEFAULT_N, DEFAULT_RANGE_PPM, DEFAULT_SEED
from . import _EXPERIMENT_NAMES as __all__
from .bounds import (
    DEFAULT_EPS_COEFF,
    _HW_EXACT_INT,
    _PLANS,
    _SPLIT32,
    _eps_hat,
    _hardware_estimate,
    _on_hardware_route,
    _validate_estimate,
    candidate_interval,
    interval_deltas,
    reference_interval,
    rounded_coefficients,
    theoretical_coefficients,
)
from .compensator import compensate, naive_compensate
from .formats import BINARY64, format_label, resolve_format
from .rationals import _exact


class _Numpy:
    """Stands in for numpy until the kernel route's first use imports it."""

    def __getattr__(self, name):
        global np
        import numpy as np

        return getattr(np, name)


np = _Numpy()

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
_INT64_MAX = 2**63 - 1
# 32 binary64 unit roundoffs; the reference error analysis needs under 8
_REFERENCE_SLACK = 2.0**-48
# tables with n * len(i_list) up to this draw scalar_cases; at D = 1e9, where each
# sample is its own case, its process measured no slower than the kernel's, numpy's
# import included, up to about 16k with one i value and 20k with four
SCALAR_TABLE_LIMIT = 12288


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
    iter: StatSummary
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
    draws = _draws(seed, n, D, range_ppm)
    return [ClockSample(D=D, A=D + offset, skew_ppm=Fraction(m, _PPM_STEPS)) for m, offset in draws]


def sample_cases(
    seed: int,
    n: int,
    D: int = DEFAULT_D,
    range_ppm: Rational = DEFAULT_RANGE_PPM,
) -> CaseTable:
    """The cases and counts of Counter((s.D, s.A) for s in generate_samples(...)) as a CaseTable.

    The samples are never built, so time is linear in n and memory in the
    number of distinct cases: each block of attempts merges into sorted
    arrays of A - D.  randint(-reach, reach) is -reach plus getrandbits(k)
    rejection-sampled below 2 * reach + 1, with k = (2 * reach + 1).bit_length().
    For k <= 32 an attempt is one generator word w, giving w >> (32 - k);
    for k <= 64 it is an aligned word pair (w0, w1), giving
    w0 | (w1 >> (64 - k)) << 32.  getrandbits(32 * W) returns the next W
    words least significant first, so its little-endian bytes, read in
    place as <u4 words or <u8 pairs w0 | w1 << 32, are the raw word stream.
    Surplus attempts past the n-th accepted draw are discarded with the
    generator.
    """
    reach, d, s = _draw_rule(seed, n, D, range_ppm)
    span = 2 * reach + 1
    k = span.bit_length()  # at most 50, as the rule allows reach <= 5 * 10**14
    words = 1 if k <= 32 else 2
    # int64 is exact while |2 * d * m + s| stays below 2**63; 2 * d itself
    # must fit too, as numpy converts it to int64 even when every m is 0
    exact_int64 = 2 * d * max(reach, 1) + s < 2**63
    # |A - D| <= (D + 1) / 2, so A fits int64 too, which sorts far faster than Python ints
    dtype = np.int64 if D < 2**62 else object
    values, counts = np.zeros(0, dtype=dtype), np.zeros(0, dtype=np.int64)
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
        m = value[value < span][:left].view(np.int64)
        del raw, value  # the block's buffers go before the next draw
        m -= reach
        left -= len(m)
        if not exact_int64:
            m = m.astype(object)
        offsets = (2 * d * m + s) // (2 * s)
        new, weights = np.unique(offsets.astype(dtype, copy=False), return_counts=True)
        at = np.searchsorted(values, new)
        seen = at < len(values)
        seen[seen] = values[at[seen]] == new[seen]
        counts[at[seen]] += weights[seen]
        values = np.insert(values, at[~seen], new[~seen])
        counts = np.insert(counts, at[~seen], weights[~seen])
    values += D
    return CaseTable(D=np.full(len(values), D, dtype=dtype), A=values, weight=counts)


def scalar_cases(
    seed: int,
    n: int,
    D: int = DEFAULT_D,
    range_ppm: Rational = DEFAULT_RANGE_PPM,
) -> _ScalarCases:
    """The cases of sample_cases(seed, n, D, range_ppm) for the experiments, without numpy.

    It draws with random.Random(seed).randint, which sample_cases
    reproduces, and the experiments give the kernel's rows and errors over
    it.  An empty draw raises here, as the experiments do for an empty CaseTable.
    """
    counts = Counter(offset for _, offset in _draws(seed, n, D, range_ppm))
    if not counts:
        raise ValueError("population must be nonempty")
    offsets = sorted(counts)
    return _ScalarCases(D, [D + offset for offset in offsets], [counts[offset] for offset in offsets])


def _shown(value) -> str:
    """str(value), or a note that str() cannot print it."""
    try:
        return str(value)
    except ValueError:  # int(str)'s cap against quadratic-time conversion
        return f"a number over Python's {sys.get_int_max_str_digits()}-digit limit"


def _draw_rule(seed: int, n: int, D: int, range_ppm: Rational) -> tuple[int, int, int]:
    """The checked arguments of a draw as (reach, d, s).

    A draw m is randint(-reach, reach) in lattice steps, and its case has
    A - D = round-half-up(2 * d * m / (2 * s)), d / s = D / _SKEW_STEPS reduced.
    """
    if type(seed) is not int:
        # None seeds from the clock, and a float, str or bytes seed hashes to another table
        raise TypeError(f"need int seed, got {type(seed).__name__}")
    if not type(n) is type(D) is int:
        # a float count breaks numpy's slicing, and a bool D would draw a table for D = 1
        raise TypeError(f"need int n, D, got {type(n).__name__}, {type(D).__name__}")
    if n < 0:
        raise ValueError(f"need n >= 0, got {_shown(n)}")
    if D <= 0:
        raise ValueError(f"need D > 0, got {_shown(D)}")
    limit = _exact(range_ppm, "range_ppm") * _PPM_STEPS
    if limit < 0 or limit.denominator != 1:
        raise ValueError(f"range_ppm must be a nonnegative multiple of 1e-9, got {_shown(range_ppm)}")
    reach = int(limit)
    # A - D = round-half-up(D * m / _SKEW_STEPS), with the fraction reduced
    g = gcd(D, _SKEW_STEPS)
    d, s = D // g, _SKEW_STEPS // g
    # case 2 decomposes D/A into (D - A)/A, which needs A > D/2: test the least A, at m = -reach;
    # it fails for every range above 500000 ppm
    if D + 2 * ((s - 2 * d * reach) // (2 * s)) <= 0:
        raise ValueError(f"range_ppm must keep every A above D/2, got {_shown(range_ppm)} at D={_shown(D)}")
    return reach, d, s


def _draws(seed: int, n: int, D: int, range_ppm: Rational) -> Iterator[tuple[int, int]]:
    """(lattice steps m, A - D) of the n draws, in order: m is random.Random(seed).randint(-reach, reach)."""
    reach, d, s = _draw_rule(seed, n, D, range_ppm)
    randint = random.Random(seed).randint
    for _ in range(n):
        m = randint(-reach, reach)
        yield m, (2 * d * m + s) // (2 * s)


class CaseArrays:
    """The checked cases of a CaseTable, for the kernel.

    D and A are the case columns, weights their weights as Python ints,
    for the exact sums, and count the total weight.  d64, db64 and a64 are
    int64 copies of D, the remainder slope db and A on the kernel's domain
    0 < D < 2A, A < 2**53, and 0, 0 and 1 elsewhere.
    """

    def __init__(self, population: CaseTable) -> None:
        if not isinstance(population, CaseTable):
            raise TypeError(f"population must be a CaseTable, got {type(population).__name__}")
        D, A, weights = map(np.asarray, population)
        if not D.ndim == A.ndim == weights.ndim == 1:
            raise ValueError("case columns must be 1-D")
        if not len(D) == len(A) == len(weights):
            raise ValueError("case columns must have one length")
        if not len(weights):
            raise ValueError("population must be nonempty")
        if not _ints(D) or not _ints(A):
            # a float, bool or numpy value would reach the int64 copies as another clock
            raise TypeError("case columns D and A must hold ints")
        if not _ints(weights) or not (weights > 0).all():
            raise ValueError("case weights must be positive integers")
        self.D, self.A, self.weights = D, A, weights.tolist()
        self.count = sum(self.weights)
        # int64 D - A and 2A may wrap, but only where 0 < A < 2**53 fails,
        # so outside the domain, where db and 2A are never read
        db = np.where(D < A, D, D - A)
        self.identity = D == A
        # D = A has db = 0, so its clock 0 shifted by i gives j = i
        self.shift = D >= A
        # with db < A, the hardware route's max(i, db, A) < 2**53 is i and A
        self.domain = (0 < A) & (A < _HW_EXACT_INT) & (D > 0) & (D < 2 * A)
        self.d64 = np.where(self.domain, D, 0).astype(np.int64)
        self.db64 = np.where(self.domain, db, 0).astype(np.int64)
        self.a64 = np.where(self.domain, A, 1).astype(np.int64)

    def check(self, i_list: tuple[int, ...]) -> None:
        """Hold each i to the (i, D, A) input rule with the first case that breaks its signs, else case 0."""
        k = int(((self.D < 0) | (self.A <= 0)).argmax())
        for i in i_list:
            _validate_estimate(i, *self.pair(k))

    def pair(self, k: int) -> tuple[int, int]:
        """Case k as Python ints, for the scalar fallbacks."""
        return int(self.D[k]), int(self.A[k])

    def __len__(self) -> int:
        return len(self.A)

    def estimate(self, i: int, fmt) -> np.ndarray:
        """t_hat = fl(fl(i) * fl(fl(db) / fl(A))) per case, as float64."""
        if fmt == BINARY64:
            return np.float64(i) * (self.db64 / self.a64)
        q = self.db64.astype(np.float32) / self.a64.astype(np.float32)
        return (np.float32(i) * q).astype(np.float64)

    def guard(self, i: int) -> np.ndarray:
        """2*i*db + A < 2**63 per case, tested without forming the product."""
        return self.db64 <= (_INT64_MAX - self.a64) // max(2 * i, 1)

    def summary(self, values) -> StatSummary:
        """min, max and weighted mean of one integer per case."""
        # Python ints: an int64 dot product could overflow
        total = sum(map(mul, values.tolist(), self.weights))
        return StatSummary(int(values.min()), int(values.max()), Fraction(total, self.count), self.count)

    def bounds_row(self, method: str, precision: str, i: int, eps_coeff) -> BoundsRow:
        """One table2 row; its arrays and its per-case fallback end with the call."""
        fmt = resolve_format(precision)

        def deltas(k):
            return _deltas(i, *self.pair(k), method, fmt, eps_coeff)

        lb, ub, fallback = candidate_ends(self, i, method, fmt, eps_coeff)
        ref_lb, ref_ub, ref_fallback = reference_ends(self, i, fmt)
        dlb, dub = _fill((ref_lb - lb, ub - ref_ub), fallback | ref_fallback, deltas)
        return BoundsRow(method, format_label(fmt), i, self.summary(dlb), self.summary(dub))

    def naive(self, i: int, fmt) -> np.ndarray:
        """naive_compensate(i, D, A, fmt) per case."""
        j, fallback = naive_floors(self, i, fmt)
        return _fill((j,), fallback, lambda k: (naive_compensate(i, *self.pair(k), fmt),))[0]

    def comp_row(self, algorithm: str, precision: str, i: int, eps_coeff, baseline) -> CompRow:
        """One table3 row against the binary64 baseline of its i; its arrays end with the call."""
        fmt = resolve_format(precision)

        def walk(k):
            return _walk(i, *self.pair(k), algorithm, fmt, eps_coeff)

        if algorithm == "naive":
            j = self.naive(i, fmt)
            iterations, violated = np.zeros_like(j), np.zeros(len(j), dtype=bool)
        else:
            *triple, fallback = compensate_triples(self, i, algorithm, fmt, eps_coeff)
            j, iterations, violated = _fill(triple, fallback, walk)
        violations = sum(compress(self.weights, violated.tolist()))
        return CompRow(algorithm, format_label(fmt), i, self.summary(baseline - j), self.summary(iterations), violations)


def _ints(column) -> bool:
    """Whether a case column is int64, or an object array of Python ints."""
    return column.dtype == np.int64 or column.dtype == object and set(map(type, column.tolist())) <= {int}


def _margin(i: int, fmt, eps_coeff):
    """1 + eps_hat as an int w < 2**53 and an exact float f in [0, 1), or None."""
    en, ed = _eps_hat(eps_coeff, i, fmt)
    w, rest = divmod(ed + en, ed)
    f = rest / ed
    if w >= _HW_EXACT_INT or Fraction(f) != Fraction(rest, ed):
        return None
    return w, f


def candidate_ends(cases: CaseArrays, i: int, method: str, fmt, eps_coeff):
    """(lb, ub, fallback) of candidate_interval(i, db, A, method, fmt, eps_coeff) per case."""
    zeros = np.zeros(len(cases), dtype=np.int64)
    if not _on_hardware_route(fmt, i):
        return zeros, zeros, np.ones(len(cases), dtype=bool)
    t_hat = cases.estimate(i, fmt)
    fallback = ~cases.domain
    if method == "approximate":
        margin = _margin(i, fmt, eps_coeff)
        if margin is None:
            return zeros, zeros, np.ones(len(cases), dtype=bool)
        w, f = margin
        low, high = np.floor(t_hat), np.ceil(t_hat)
        lb = low.astype(np.int64) - w - (t_hat - low < f)
        ub = high.astype(np.int64) + w + (high - t_hat < f)
        return lb, ub, fallback
    lo, hi = (float(c) for c in rounded_coefficients(method, fmt))  # which rejects an unknown method
    low, high = lo * t_hat, hi * t_hat
    lb, ub = np.floor(low), np.ceil(high)
    # exact for binary32; a binary64 product with a fraction is an ulp or more
    # from every integer, so it has the exact product's floor/ceil
    if 2 * fmt.precision > 53:
        fallback = fallback | ((lb == low) | (ub == high)) & (t_hat != 0)
    return lb.astype(np.int64), ub.astype(np.int64), fallback


def reference_ends(cases: CaseArrays, i: int, fmt):
    """(lb, ub, fallback) of reference_interval(i, db, A, fmt) per case.

    With t = q + r/A and c = 1 + delta, c*t = q + f for f = r/A + delta*t.
    f is computed with four roundings for delta*t and one each for r/A
    and the sum, so it is off by at most 2u + 5.02u|s|, s the computed
    delta*t and u = 2**-53, and by at most 5.02u|s| when r = 0.  The
    window 32u(|s| + 1), or 32u|s| when r = 0, around f covers that and
    the rounding of its own ends; t = 0 gives the exact f = 0.
    """
    zeros = np.zeros(len(cases), dtype=np.int64)
    if not _on_hardware_route(fmt, i):
        return zeros, zeros, np.ones(len(cases), dtype=bool)
    guard = cases.guard(i)
    n = i * np.where(guard, cases.db64, 0)
    q, r = np.divmod(n, cases.a64)
    t = n / cases.a64
    r_frac = r / cases.a64
    fallback = ~cases.domain | ~guard
    ends = []
    for c, op in zip(theoretical_coefficients(fmt), (np.floor, np.ceil)):
        s = float(c - 1) * t
        f = r_frac + s
        slack = _REFERENCE_SLACK * (np.abs(s) + (r > 0))
        low, high = op(f - slack), op(f + slack)
        fallback |= low != high
        ends.append(q + high.astype(np.int64))
    return ends[0], ends[1], fallback


def compensate_triples(cases: CaseArrays, i: int, method: str, fmt, eps_coeff):
    """(j, iterations, violated, fallback) of compensate(i, D, A, method, fmt, eps_coeff)."""
    lb, ub, fallback = candidate_ends(cases, i, method, fmt, eps_coeff)
    if fallback.all():  # off the route or declined: the caller walks every case
        return lb, ub, ~fallback, fallback
    guard = cases.guard(i)
    db = np.where(guard, cases.db64, 0)
    j = (2 * i * db + cases.a64) // (2 * cases.a64)
    low, high = np.maximum(lb, 0), np.minimum(ub, i)
    width = high - low
    violated = (j < low) | (j > high)
    j = np.where(cases.shift, i + j, j)
    # an interval wholly above i misses in 0 iterations, as compensate walks it as one point
    iterations = np.where(cases.identity, 0, np.maximum(width, 0))
    return j, iterations, violated, fallback | ~guard


def naive_floors(cases: CaseArrays, i: int, fmt):
    """(j, fallback) of naive_compensate(i, D, A, fmt) per case.

    With i*D = q*A + r and k the bit length of q, the format's spacing
    around i*D/A is 2**s for s = k - p (also for q = 0, where a value
    that rounds up reaches 1).  For s < 0, q is in the format and the
    value rounds to q + 1 iff 1 - r/A <= 2**(s - 1); the tie goes up,
    as q + 1 has an even mantissa.  For s >= 0 the mantissa q >> s rounds
    half to even on its remainder ((q mod 2**s)*A + r) / (A * 2**s).
    With s >= 0, A * 2**(s + 1) <= A * 2**(k - 1) <= q*A <= i*D, so the
    guard i*D < 2**63 keeps every product in int64.  k comes from frexp,
    exact while q < 2**53.
    """
    if not _on_hardware_route(fmt, i):
        return np.zeros(len(cases), dtype=np.int64), np.ones(len(cases), dtype=bool)
    a = cases.a64
    guard = cases.d64 <= _INT64_MAX // max(i, 1)
    q, r = np.divmod(i * np.where(guard, cases.d64, 0), a)
    s = np.frexp(q.astype(np.float64))[1] - fmt.precision
    shift = np.maximum(s, 0)
    mantissa = q >> shift
    den = a << shift
    gap = den - ((q - (mantissa << shift)) * a + r)
    up = (gap <= den >> (1 - np.minimum(s, 0))) & ((2 * gap != den) | (mantissa & 1 == 1))
    return (mantissa + up) << shift, ~cases.domain | ~guard | (q >= _HW_EXACT_INT)


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


def _deltas(i: int, D: int, A: int, method: str, fmt, eps_coeff) -> tuple[int, int]:
    """interval_deltas of one case's candidate and reference intervals, on its remainder slope."""
    db = D - A if D >= A else D
    cand = candidate_interval(i, db, A, method, fmt, eps_coeff)
    return interval_deltas(cand, reference_interval(i, db, A, fmt))


def _walk(i: int, D: int, A: int, algorithm: str, fmt, eps_coeff) -> tuple[int, int, bool]:
    """(j, iterations, bounds_violated) of one case's compensate."""
    res = compensate(i, D, A, algorithm, fmt, eps_coeff)
    return res.j, res.iterations, res.bounds_violated


def _checked(
    population: CaseTable | _ScalarCases, i_list: Iterable[int]
) -> tuple[CaseArrays | _ScalarCases, tuple[int, ...]]:
    """A scalar_cases set as it is or else CaseArrays(population), and i_list as a tuple, each i checked."""
    cases = population if isinstance(population, _ScalarCases) else CaseArrays(population)
    i_list = tuple(i_list)
    cases.check(i_list)
    return cases, i_list


def bounds_experiment(
    population: CaseTable | _ScalarCases,
    i_list: Iterable[int] = DEFAULT_I_LIST,
    configs: Sequence[tuple[str, str]] = TABLE2_CONFIGS,
    eps_coeff=DEFAULT_EPS_COEFF,
) -> list[BoundsRow]:
    """Bound deltas per (method, precision, i) over the population.

    The population is a CaseTable such as sample_cases returns, or a scalar_cases
    set; each distinct case is evaluated once, a whole row at a time, and the
    cases the row cannot prove go through candidate_interval and reference_interval.

    Case 2 samples (D > A) are decomposed to the remainder slope for the
    candidate and the reference alike, so deltas compare like with like.
    """
    cases, i_list = _checked(population, i_list)
    return [cases.bounds_row(method, precision, i, eps_coeff) for method, precision in configs for i in i_list]


def compensation_experiment(
    population: CaseTable | _ScalarCases,
    i_list: Iterable[int] = DEFAULT_I_LIST,
    algorithms: Sequence[tuple[str, str]] = TABLE3_ALGORITHMS,
    eps_coeff=DEFAULT_EPS_COEFF,
) -> list[CompRow]:
    """Compensation error and iteration stats per (algorithm, i).

    err = naive_compensate(i, D, A, "binary64") - j, the floor of i*D/A
    rounded once to binary64, so err = 0 means agreement with that
    baseline.  Interval misses are counted in violations, never silently
    dropped.  Each row, and the binary64 baseline for each i, is one pass
    over the population, as in bounds_experiment, with compensate or
    naive_compensate for the cases it cannot prove.
    """
    cases, i_list = _checked(population, i_list)
    baseline = {i: cases.naive(i, BINARY64) for i in i_list}
    return [
        cases.comp_row(algorithm, precision, i, eps_coeff, baseline[i])
        for algorithm, precision in algorithms
        for i in i_list
    ]


class _ScalarCases:
    """The cases scalar_cases draws, and the per-case values the rows over them share.

    A holds the cases' A in the kernel's ascending order and weights
    their counts.  The draw keeps every A above D/2, so the cases in the
    kernel's domain 0 < D < 2A, A < 2**53 are the first `closed` ones.
    For i < 2**53 those take the kernel's closed forms on Python ints and
    floats, and the rest, or every case for a larger i, the per-case
    functions.  db is the remainder slope of each closed case.  The
    quotients fl(fl(db) / fl(A)) of a format, and t_hat and the reference
    ends of an (i, format), are computed on first use and kept, so both
    experiments, at any configs and eps_coeff, may share one set.
    """

    def __init__(self, D: int, A: list[int], weights: list[int]) -> None:
        self.D, self.A, self.weights = D, A, weights
        self.count = sum(weights)
        self.closed = bisect_left(A, _HW_EXACT_INT)
        self.db = [D - a if D >= a else D for a in A[: self.closed]]
        self._quotients, self._estimates, self._references = {}, {}, {}

    def check(self, i_list: tuple[int, ...]) -> None:
        """Hold each i to the (i, D, A) input rule with case 0, as every case has D > 0 and A > D/2."""
        for i in i_list:
            _validate_estimate(i, self.D, self.A[0])

    def _closed_at(self, i: int, hardware: bool) -> int:
        """How many of the first cases take the closed forms at i."""
        return self.closed if hardware and i < _HW_EXACT_INT else 0

    def summary(self, values: list[int]) -> StatSummary:
        total = sum(map(mul, values, self.weights))
        return StatSummary(min(values), max(values), Fraction(total, self.count), self.count)

    def estimates(self, i: int, fmt) -> list[float]:
        """_hardware_estimate(i, db, A, fmt) of each closed case."""
        key = i, fmt
        if key not in self._estimates:
            if fmt not in self._quotients:
                # t_hat at i = 1 is the rounded quotient
                self._quotients[fmt] = [_hardware_estimate(1, db, a, fmt) for db, a in zip(self.db, self.A)]
            quotients = self._quotients[fmt]
            if fmt.precision == 53:
                x = float(i)
                self._estimates[key] = [x * q for q in quotients]
            else:
                # fl(i) * q is exact in binary64 and rounds to binary32 by a Veltkamp split
                x = _hardware_estimate(i, 1, 1, fmt)
                products = [x * q for q in quotients]
                self._estimates[key] = [c - (c - t) for c, t in zip([t * _SPLIT32 for t in products], products)]
        return self._estimates[key]

    def candidate_ends(self, i: int, method: str, precision: str, eps_coeff) -> tuple[list[int], list[int]]:
        """lb and ub of candidate_interval(i, db, A, method, precision, eps_coeff) per closed case."""
        fmt, _, _, ratios, floats = _PLANS[method, precision, type(precision)]
        t_hat = self.estimates(i, fmt)
        if floats is not None:  # binary32 t_hat and coefficients: each product is exact
            lo, hi = floats
            return [floor(lo * t) for t in t_hat], [ceil(hi * t) for t in t_hat]
        pairs = [t.as_integer_ratio() for t in t_hat]
        if ratios is not None:
            lo_n, lo_d, hi_n, hi_d = ratios
            return (
                [(lo_n * tn) // (lo_d * td) for tn, td in pairs],
                [-((-hi_n * tn) // (hi_d * td)) for tn, td in pairs],
            )
        # t_hat -/+ (1 + eps_hat) over td * ed, with eps_hat = en / ed
        en, ed = _eps_hat(eps_coeff, i, fmt)
        margin = ed + en
        return (
            [(tn * ed - td * margin) // (td * ed) for tn, td in pairs],
            [-((-tn * ed - td * margin) // (td * ed)) for tn, td in pairs],
        )

    def reference_ends(self, i: int, fmt) -> tuple[list[int], list[int]]:
        """lb and ub of reference_interval(i, db, A, fmt) per closed case."""
        key = i, fmt
        if key not in self._references:
            lo, hi = theoretical_coefficients(fmt)
            lo_n, lo_d, hi_n, hi_d = lo.numerator * i, lo.denominator, -hi.numerator * i, hi.denominator
            cases = list(zip(self.db, self.A))
            self._references[key] = (
                [(lo_n * db) // (lo_d * a) for db, a in cases],
                [-((hi_n * db) // (hi_d * a)) for db, a in cases],
            )
        return self._references[key]

    def bounds_row(self, method: str, precision: str, i: int, eps_coeff) -> BoundsRow:
        """One table2 row: the closed cases, then the rest through _deltas, in case order."""
        fmt, label, hardware, _, _ = _PLANS[method, precision, type(precision)]
        dlb, dub = [], []
        m = self._closed_at(i, hardware)
        if m:
            lb, ub = self.candidate_ends(i, method, precision, eps_coeff)
            ref_lb, ref_ub = self.reference_ends(i, fmt)
            dlb, dub = list(map(sub, ref_lb, lb)), list(map(sub, ub, ref_ub))
        for a in self.A[m:]:
            low, high = _deltas(i, self.D, a, method, fmt, eps_coeff)
            dlb.append(low)
            dub.append(high)
        return BoundsRow(method, label, i, self.summary(dlb), self.summary(dub))

    def naive(self, i: int, fmt) -> list[int]:
        """naive_compensate(i, D, A, fmt) per case.

        naive_floors's rule with int.bit_length for frexp: with
        i*D = q*A + r and s the bit length of q less p, q rounds to q + 1
        iff 1 - r/A <= 2**(s - 1) for s < 0, and for s >= 0 the mantissa
        of i*D / (A * 2**s) rounds half to even.
        """
        m = self._closed_at(i, True)  # exact integer arithmetic in every format
        x, p, j = i * self.D, fmt.precision, []
        for a in self.A[:m]:
            q, r = divmod(x, a)
            s = q.bit_length() - p
            if s < 0:
                j.append(q + ((a - r) << (1 - s) <= a))
            else:
                den = a << s
                mantissa, rest = divmod(x, den)
                j.append(mantissa + (2 * rest > den or 2 * rest == den and mantissa & 1) << s)
        return j + [naive_compensate(i, self.D, a, fmt) for a in self.A[m:]]

    def comp_row(self, algorithm: str, precision: str, i: int, eps_coeff, baseline: list[int]) -> CompRow:
        """One table3 row against the binary64 baseline of its i, in case order."""
        if algorithm == "naive":
            fmt = resolve_format(precision)
            err = list(map(sub, baseline, self.naive(i, fmt)))
            return CompRow(algorithm, format_label(fmt), i, self.summary(err), self.summary([0] * len(err)), 0)
        fmt, label, hardware, _, _ = _PLANS[algorithm, precision, type(precision)]
        D, A = self.D, self.A

        def walk(a):
            return _walk(i, D, a, algorithm, fmt, eps_coeff)

        m = self._closed_at(i, hardware)
        j, iterations, violated = [], [], []
        if m:
            # compensate's triple in closed form, as compensate_triples gives it
            lb, ub = self.candidate_ends(i, algorithm, precision, eps_coeff)
            twice = [2 * i * db + a for db, a in zip(self.db, A)]
            clock = [t // (2 * a) for t, a in zip(twice, A)]
            low = [e if e > 0 else 0 for e in lb]
            high = [e if e < i else i for e in ub]
            j = [c + i if a <= D else c for c, a in zip(clock, A)]
            iterations = [h - e if h > e and db else 0 for e, h, db in zip(low, high, self.db)]
            violated = [c < e or c > h for c, e, h in zip(clock, low, high)]
            # past the kernel's guard the walk decides, as it raises OverflowRisk at i*db + A >= 2**63
            for k in [k for k, t in enumerate(twice) if t > _INT64_MAX]:
                j[k], iterations[k], violated[k] = walk(A[k])
        for a in A[m:]:
            triple = walk(a)
            j.append(triple[0])
            iterations.append(triple[1])
            violated.append(triple[2])
        err, violations = list(map(sub, baseline, j)), sum(compress(self.weights, violated))
        return CompRow(algorithm, label, i, self.summary(err), self.summary(iterations), violations)
