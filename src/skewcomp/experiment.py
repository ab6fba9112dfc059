"""Sample generation and the statistics of the two experiments.

One experiment compares candidate intervals against the exact reference
(bound deltas), the other compares compensated clocks against the
binary64 floor baseline (errors and iteration counts).  Samples draw a
skew uniformly from a lattice with 1e-9 ppm steps, which keeps every
draw an exact rational and makes runs reproducible from the seed alone.

Each experiment runs one loop over the rows of a case set.  A CaseTable,
such as sample_cases draws, becomes CaseArrays, the numpy kernel of
skewcomp.kernel, which this module imports only for sample_cases or a
CaseTable.  Tables with n * len(i_list) up to SCALAR_TABLE_LIMIT draw
scalar_cases instead, whose rows take the kernel's closed forms on
Python ints and floats.  Those are exact, so the set declines only for
domain: t_hat takes _hardware_estimate's operations, with each case's
quotient rounded once per format; a binary32 end is floor/ceil of its
exact product, and binary64 and approximate ends, the reference ends and
the naive floor (with int.bit_length for frexp) are integer floor
divisions.  It sends to the scalar functions only i or A >= 2**53,
formats other than binary32/binary64 (but for the naive floor, exact in
any format) and, for compensate, 2*i*db + A >= 2**63.
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
from typing import TYPE_CHECKING, NamedTuple

from . import DEFAULT_D, DEFAULT_I_LIST, DEFAULT_N, DEFAULT_RANGE_PPM, DEFAULT_SEED
from . import _EXPERIMENT_NAMES as __all__
from .bounds import (
    DEFAULT_EPS_COEFF,
    _HW_EXACT_INT,
    _PLANS,
    _SPLIT32,
    _eps_hat,
    _hardware_estimate,
    _validate_estimate,
    candidate_interval,
    interval_deltas,
    reference_interval,
    theoretical_coefficients,
)
from .compensator import compensate, naive_compensate
from .formats import BINARY64, format_label, resolve_format
from .rationals import _exact

if TYPE_CHECKING:
    from .kernel import CaseArrays

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
_INT64_MAX = 2**63 - 1
# tables with n * len(i_list) up to this draw scalar_cases; at D = 1e9, where each
# sample is its own case, its process measured faster than the kernel's, numpy's
# import included, up to 14336 with one i value (16384 tied) and 16384 with four
SCALAR_TABLE_LIMIT = 14336


class CaseTable(NamedTuple):
    """(D, A) cases in int columns of one length, such as numpy int64 arrays, with their positive int weights."""

    D: Sequence[int]
    A: Sequence[int]
    weight: Sequence[int]


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

    The samples are never built: skewcomp.kernel draws the table in numpy
    blocks, so time is linear in n and memory in the number of distinct cases.
    """
    from . import kernel

    return kernel.sample_cases(seed, n, D, range_ppm)


def scalar_cases(
    seed: int,
    n: int,
    D: int = DEFAULT_D,
    range_ppm: Rational = DEFAULT_RANGE_PPM,
) -> _ScalarCases:
    """The cases of sample_cases(seed, n, D, range_ppm) for the experiments, without numpy.

    It draws random.Random(seed).randint's values, which sample_cases
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
    """(lattice steps m, A - D) of the n draws, in order: m is random.Random(seed).randint(-reach, reach).

    The loop is randint's: -reach plus getrandbits(k) rejection-sampled below span, k = span.bit_length().
    """
    reach, d, s = _draw_rule(seed, n, D, range_ppm)
    span = 2 * reach + 1
    k = span.bit_length()
    getrandbits = random.Random(seed).getrandbits
    for _ in range(n):
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        m = r - reach
        yield m, (2 * d * m + s) // (2 * s)


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
    if isinstance(population, _ScalarCases):
        cases = population
    else:
        from .kernel import CaseArrays

        cases = CaseArrays(population)
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
