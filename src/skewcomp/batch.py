"""One table row over all distinct cases in a single numpy pass.

The experiments evaluate each (method, format, i) row over arrays of the
population's distinct (D, A) cases, split to the remainder slope
db/A with db < A.  Every value equals what the scalar
candidate_interval, reference_interval and compensate return:

- t_hat runs in numpy float32/float64, with the same correctly rounded
  operations as clock_estimate's hardware route.
- A candidate end is floor/ceil of the exact c * t_hat or t_hat -/+ m.
  Dekker's TwoProduct and Knuth's TwoSum give it as p + e exactly, with
  p the rounded value.  floor(p + e) is floor(p), unless p is an
  integer, where it is p + floor(e); ceil likewise.
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

A case the kernel cannot prove is marked in the fallback mask it returns,
and the caller evaluates it with the scalar functions, which also raise
whatever they raise for it.  That covers inputs off the hardware route
(i, D or A >= 2**53, formats other than binary32/binary64), cases
outside 0 < D < 2A, 2*i*db + A >= 2**63 (i*D >= 2**63 for the naive
floor, and its quotient >= 2**53), an uncertain reference end, and an
approximate margin 1 + eps_hat that is not exact in float64.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .bounds import (
    _HW_EXACT_INT,
    _eps_hat,
    _on_hardware_route,
    rounded_coefficients,
    theoretical_coefficients,
)
from .experiment import CaseTable
from .formats import BINARY64

_INT64_MAX = 2**63 - 1
# Dekker's splitter for binary64, 2**27 + 1
_SPLITTER = float(2**27 + 1)
# 32 binary64 unit roundoffs; the reference error analysis needs under 8
_REFERENCE_SLACK = 2.0**-48


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


def _ints(column) -> bool:
    """Whether a case column is int64, or an object array of Python ints."""
    return column.dtype == np.int64 or column.dtype == object and set(map(type, column.tolist())) <= {int}


def _on_route(i, fmt) -> bool:
    """Whether the row is on the scalar hardware route; each case also needs A < 2**53."""
    return type(i) is int and i >= 0 and _on_hardware_route(fmt, i)


def _split(a):
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and a*b = p + e exactly (Dekker 1971)."""
    p = a * b
    a_high, a_low = _split(a)
    b_high, b_low = _split(b)
    return p, a_low * b_low - (((p - a_high * b_high) - a_low * b_high) - a_high * b_low)


def _two_sum(a, b):
    """(s, e) with s = fl(a+b) and a+b = s + e exactly (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _exact(op, p, e) -> np.ndarray:
    """op(p + e) as int64, op np.floor or np.ceil, for an error-free pair.

    |e| <= ulp(p)/2, and a p with a fractional part lies at least ulp(p)
    from every integer, so only an integer p can be moved by e.
    """
    r = op(p)
    return r.astype(np.int64) + np.where(r == p, op(e), 0).astype(np.int64)


def _margin(i: int, fmt, eps_coeff):
    """1 + eps_hat as an exact float64 below 2**53, or None, also for an eps_coeff the scalar path rejects."""
    try:
        en, ed = _eps_hat(eps_coeff, i, fmt)
    except (TypeError, ValueError, ZeroDivisionError):
        return None
    margin = Fraction(ed + en, ed)
    if margin >= _HW_EXACT_INT or float(margin) != margin:
        return None
    return float(margin)


def candidate_ends(cases: CaseArrays, i: int, method: str, fmt, eps_coeff):
    """(lb, ub, fallback) of candidate_interval(i, db, A, method, fmt, eps_coeff) per case."""
    zeros = np.zeros(len(cases), dtype=np.int64)
    if not _on_route(i, fmt):
        return zeros, zeros, np.ones(len(cases), dtype=bool)
    t_hat = cases.estimate(i, fmt)
    if method in ("theoretical", "practical"):
        lo, hi = (float(c) for c in rounded_coefficients(method, fmt))
        lb = _exact(np.floor, *_two_product(lo, t_hat))
        ub = _exact(np.ceil, *_two_product(hi, t_hat))
    elif method == "approximate":
        margin = _margin(i, fmt, eps_coeff)
        if margin is None:
            return zeros, zeros, np.ones(len(cases), dtype=bool)
        lb = _exact(np.floor, *_two_sum(t_hat, -margin))
        ub = _exact(np.ceil, *_two_sum(t_hat, margin))
    else:
        return zeros, zeros, np.ones(len(cases), dtype=bool)
    return lb, ub, ~cases.domain


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
    if not _on_route(i, fmt):
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
    if not _on_route(i, fmt):
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
