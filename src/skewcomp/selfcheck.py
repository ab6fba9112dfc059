"""The invariant battery behind `skewcomp selftest`.

Each check is one trial on a shared seeded generator; run prints one
line per check and gives the command's exit code.  The CLI imports this
module only for the selftest command, so the single-shot commands and
the table runs do not compile it.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from .bounds import (
    DEFAULT_EPS_COEFF,
    METHODS,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    theoretical_coefficients,
)
from .compensator import compensate, oracle_nearest
from .formats import BINARY32, FloatFormat, unit_roundoff
from .rationals import is_in_format, round_to_format


def _check_rounding(rng):
    q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
    r = round_to_format(q, BINARY32)
    ok = round_to_format(r, BINARY32) == r and is_in_format(r, BINARY32)
    return ok and abs(q - r) <= abs(q) * Fraction(1, 2**24) or None


def _check_representable(rng):
    for f in map(FloatFormat, (11, 24, 53)):
        u = unit_roundoff(f)
        if not is_in_format(1 - u, f) or not is_in_format(1 + 2 * u, f) or is_in_format(1 + u, f):
            return None
    return True


def _check_bracket(rng):
    i, D, A = rng.randint(0, 10**9), rng.randint(1, 10**6), rng.randint(1, 10**6)
    c_lo, c_hi = theoretical_coefficients(BINARY32)
    t = Fraction(i * D, A)
    return c_lo * t <= emulated_clock_estimate(i, D, A, BINARY32) <= c_hi * t or None


def _check_hardware(rng):
    i, D, A = rng.randint(0, 10**9), rng.randint(1, 10**6), rng.randint(1, 10**6)
    precisions = ("binary32", "binary64")
    return all(Fraction(clock_estimate(i, D, A, p)) == emulated_clock_estimate(i, D, A, p) for p in precisions) or None


def _check_oracle(rng):
    A = rng.randint(1, 10**6)
    D = rng.randint(1, 2 * A - 1)
    i = rng.randint(0, 10**6)
    want = oracle_nearest(i, D, A)
    # j is exact even when the interval missed
    return all(compensate(i, D, A, m, p).j == want for m in METHODS for p in ("binary32", "binary64")) or None


def _check_misses(rng):
    A = rng.randint(1, 10**9)
    D = rng.randint(1, 2 * A - 1)
    i = rng.randint(0, 10**9)
    db = D - A if D >= A else D
    clock = oracle_nearest(i, db, A)
    # a zero approximate margin makes binary32 intervals miss at large i
    configs = [(m, p, DEFAULT_EPS_COEFF) for m in METHODS for p in ("binary32", "binary64")]
    misses = 0
    for method, precision, eps_coeff in [*configs, ("approximate", "binary32", 0)]:
        violated = compensate(i, D, A, method, precision, eps_coeff).bounds_violated
        cand = candidate_interval(i, db, A, method, precision, eps_coeff)
        if violated != (not cand.lb <= clock <= cand.ub):
            return None
        misses += violated
    return misses


# Each call of a check is one trial on the shared generator.  It returns None
# when the invariant fails, else a count that must not sum to 0 over the
# trials: True for a pass, or the misses seen, so the miss check must see one.
_CHECKS = (
    ("round_to_format idempotent and within one roundoff", _check_rounding, 2000),
    ("1-u and 1+2u representable, 1+u not", _check_representable, 1),
    ("pipeline value stays inside the coefficient bracket", _check_bracket, 2000),
    ("hardware and emulated pipelines agree", _check_hardware, 500),
    ("compensate matches the exact oracle", _check_oracle, 500),
    ("bounds_violated iff the oracle lies outside the candidate interval", _check_misses, 300),
)


def run() -> int:
    """Run every check, print one line each, and give the exit code: 0 if all pass, else 2."""
    rng = random.Random(20260825)
    failures = 0
    for name, check, trials in _CHECKS:
        results = [check(rng) for _ in range(trials)]
        ok = None not in results and sum(results) > 0
        failures += not ok
        print(f"ok: {name}" if ok else f"FAIL: {name} ({results.count(None)} of {trials} trials failed)")
    if failures:
        print(f"{failures} selftest failure(s)", file=sys.stderr)
        return 2
    print("selftest passed")
    return 0
