"""Command line front end.

Single-shot computations (bounds, compensate) for one (i, D, A) triple,
full table reproduction (table2, table3) over seeded random samples,
and a quick self-check battery (selftest).  Tables print as CSV with
#-prefixed metadata lines or as JSON with the same numeric content.

Exit codes: 0 success, 1 validation error, 2 internal check failure
(selftest failure, or a bounds violation under --strict).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .bounds import (
    DEFAULT_EPS_COEFF,
    METHODS,
    ZeroDivisor,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    interval_deltas,
    reference_interval,
    theoretical_coefficients,
)
from .compensator import compensate, oracle_nearest
from .experiment import (
    DEFAULT_D,
    DEFAULT_I_LIST,
    DEFAULT_N,
    DEFAULT_RANGE_PPM,
    DEFAULT_SEED,
    StatSummary,
    bounds_experiment,
    compensation_experiment,
    sample_cases,
)
from .formats import BINARY32, FORMATS, FloatFormat, unit_roundoff
from .rationals import is_in_format, round_to_format

TABLE2_HEADER = [
    "method",
    "precision",
    "i",
    "dlb_min",
    "dlb_max",
    "dlb_avg",
    "dub_min",
    "dub_max",
    "dub_avg",
]

TABLE3_HEADER = [
    "algorithm",
    "precision",
    "i",
    "err_min",
    "err_max",
    "err_avg",
    "iter_min",
    "iter_max",
    "iter_avg",
    "violations",
]

# InvalidInput and SkewOutOfRange are ValueErrors, OverflowError covers OverflowRisk and
# huge floats; parsed inputs are ints, Fractions and choices, so a TypeError is a bug
_USER_ERRORS = (ValueError, ZeroDivisor, OverflowError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # internal check failures, so route usage problems to exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_int(text: str) -> int:
    """Integer, allowing 1e9-style shorthand as long as it is exact; no a/b form."""
    value = _parse_fraction(text)
    if value.denominator != 1 or "/" in text:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return value.numerator


def _parse_i_list(text: str) -> list[int]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty i list")
    return [_parse_int(part) for part in parts]


def _parse_fraction(text: str) -> Fraction:
    """Exact rational in integer, decimal, exponent or a/b form; no inf or nan."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        if "integer string conversion" in str(exc):  # int(str)'s cap against quadratic-time parsing
            limit = sys.get_int_max_str_digits()
            raise argparse.ArgumentTypeError(f"an integer in {text[:12]!r}... is over Python's {limit}-digit limit") from None
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None


def _cells(row) -> list:
    """A table row's cells in field order; a StatSummary gives min, max, avg.

    Averages print with 4 significant decimals.
    """
    cells = []
    for value in row:
        if isinstance(value, StatSummary):
            cells += [value.min, value.max, f"{float(value.avg):.4e}"]
        else:
            cells.append(value)
    return cells


def _emit_table(cells, header, meta, fmt, out) -> None:
    if fmt == "json":
        # the *_avg cells become the numbers their printed text reads as
        dict_rows = [
            {name: float(cell) if name.endswith("_avg") else cell for name, cell in zip(header, row)}
            for row in cells
        ]
        json.dump({"meta": meta, "rows": dict_rows}, out, indent=2)
        out.write("\n")
    else:
        for key, value in meta.items():
            out.write(f"# {key}={value}\n")
        for row in [header, *cells]:
            out.write(",".join(map(str, row)) + "\n")


def _table_meta(name: str, args) -> dict:
    return {
        "tool": f"skewcomp {__version__} {name}",
        "seed": args.seed,
        "samples": args.samples,
        "D": args.D,
        "range_ppm": args.range_ppm,
        "eps_coeff": args.eps_coeff,
        "i": ",".join(str(i) for i in args.i),
        "distribution": "skew uniform on the 1e-9 ppm lattice in [-range_ppm, +range_ppm]",
        "conventions": "dlb=ref_lb-lb dub=ub-ref_ub err=floor64-j avg printed as %.4e",
    }


def _cmd_bounds(args) -> int:
    cand = candidate_interval(args.i, args.D, args.A, args.method, args.precision, args.eps_coeff)
    ref = reference_interval(args.i, args.D, args.A, args.precision)
    dlb, dub = interval_deltas(cand, ref)
    print(f"lb={cand.lb} ub={cand.ub} dlb={dlb} dub={dub}")
    return 0


def _cmd_compensate(args) -> int:
    result = compensate(args.i, args.D, args.A, args.method, args.precision, args.eps_coeff)
    err = oracle_nearest(args.i, args.D, args.A) - result.j
    print(
        f"j={result.j} iterations={result.iterations} err={err} "
        f"case={result.case} bounds_violated={result.bounds_violated}"
    )
    if args.strict and result.bounds_violated:
        print("strict mode: candidate interval missed the compensated clock", file=sys.stderr)
        return 2
    return 0


def _run_table(args, name) -> int:
    cases = sample_cases(args.seed, args.samples, args.D, args.range_ppm)
    if name == "table2":
        rows = bounds_experiment(cases, args.i, eps_coeff=args.eps_coeff)
        header = TABLE2_HEADER
    else:
        rows = compensation_experiment(cases, args.i, eps_coeff=args.eps_coeff)
        header = TABLE3_HEADER
    # cells and metadata strings first: an overflowing float() or str() fails before -o truncates a file
    cells = [_cells(row) for row in rows]
    meta = {key: str(value) for key, value in _table_meta(name, args).items()}
    if args.output and args.output != "-":
        with open(args.output, "w", newline="") as out:
            _emit_table(cells, header, meta, args.format, out)
    else:
        _emit_table(cells, header, meta, args.format, sys.stdout)
    return 0


def _selftest() -> int:
    failures = []

    def check(name, ok, detail=""):
        if ok:
            print(f"ok: {name}")
        else:
            failures.append(name)
            print(f"FAIL: {name} {detail}")

    rng = random.Random(20260825)
    fmt32 = BINARY32

    rounded_ok = True
    for _ in range(2000):
        q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        r = round_to_format(q, fmt32)
        if round_to_format(r, fmt32) != r or not is_in_format(r, fmt32):
            rounded_ok = False
            break
        if q != 0 and abs(q - r) > abs(q) * Fraction(1, 2**24):
            rounded_ok = False
            break
    check("round_to_format idempotent and within one roundoff", rounded_ok)

    repr_ok = True
    for p in (11, 24, 53):
        f = FloatFormat(p)
        u = unit_roundoff(f)
        repr_ok &= is_in_format(1 - u, f) and is_in_format(1 + 2 * u, f)
        repr_ok &= not is_in_format(1 + u, f)
    check("1-u and 1+2u representable, 1+u not", repr_ok)

    c_lo, c_hi = theoretical_coefficients(fmt32)
    bracket_ok = True
    for _ in range(2000):
        i = rng.randint(0, 10**9)
        D = rng.randint(1, 10**6)
        A = rng.randint(1, 10**6)
        t_hat = emulated_clock_estimate(i, D, A, fmt32)
        t = Fraction(i * D, A)
        if not c_lo * t <= t_hat <= c_hi * t:
            bracket_ok = False
            break
    check("pipeline value stays inside the coefficient bracket", bracket_ok)

    hw_ok = True
    for _ in range(500):
        i = rng.randint(0, 10**9)
        D = rng.randint(1, 10**6)
        A = rng.randint(1, 10**6)
        for precision in ("binary32", "binary64"):
            hw = Fraction(clock_estimate(i, D, A, precision))
            if hw != emulated_clock_estimate(i, D, A, precision):
                hw_ok = False
                break
    check("hardware and emulated pipelines agree", hw_ok)

    oracle_ok = True
    for _ in range(500):
        A = rng.randint(1, 10**6)
        D = rng.randint(1, 2 * A - 1)
        i = rng.randint(0, 10**6)
        want = oracle_nearest(i, D, A)
        for method in METHODS:
            for precision in ("binary32", "binary64"):
                res = compensate(i, D, A, method, precision)
                # j is exact even when the interval missed
                if res.j != want:
                    oracle_ok = False
                    break
    check("compensate matches the exact oracle", oracle_ok)

    # a zero approximate margin makes binary32 intervals miss at large i
    configs = [(m, p, DEFAULT_EPS_COEFF) for m in METHODS for p in ("binary32", "binary64")]
    configs.append(("approximate", "binary32", 0))
    miss_ok, misses = True, 0
    for _ in range(300):
        A = rng.randint(1, 10**9)
        D = rng.randint(1, 2 * A - 1)
        i = rng.randint(0, 10**9)
        db = D - A if D > A else D
        clock = oracle_nearest(i, db, A)
        for method, precision, eps_coeff in configs:
            violated = compensate(i, D, A, method, precision, eps_coeff).bounds_violated
            cand = candidate_interval(i, db, A, method, precision, eps_coeff)
            miss_ok &= violated == (D != A and not cand.lb <= clock <= cand.ub)
            misses += violated
    check(
        "bounds_violated iff the oracle lies outside the candidate interval",
        miss_ok and misses > 0,
        f"({misses} misses)",
    )

    if failures:
        print(f"{len(failures)} selftest failure(s)", file=sys.stderr)
        return 2
    print("selftest passed")
    return 0


def _add_triple_args(sub) -> None:
    sub.add_argument("--i", type=_parse_int, required=True, help="hardware clock value")
    sub.add_argument("--D", type=_parse_int, required=True, help="reference ticks per interval")
    sub.add_argument("--A", type=_parse_int, required=True, help="local ticks per interval")
    sub.add_argument("--method", choices=METHODS, default="practical")
    sub.add_argument("--precision", choices=sorted(FORMATS), default="binary32")
    sub.add_argument(
        "--eps-coeff",
        dest="eps_coeff",
        type=_parse_fraction,
        default=DEFAULT_EPS_COEFF,
        help="margin coefficient for the approximate method (exact rational)",
    )


def _add_table_args(sub) -> None:
    sub.add_argument("--samples", "-n", type=_parse_int, default=DEFAULT_N)
    sub.add_argument("--seed", type=_parse_int, default=DEFAULT_SEED)
    sub.add_argument("--D", type=_parse_int, default=DEFAULT_D)
    sub.add_argument("--range-ppm", dest="range_ppm", type=_parse_fraction, default=Fraction(DEFAULT_RANGE_PPM))
    sub.add_argument("--i", type=_parse_i_list, default=list(DEFAULT_I_LIST), help="comma separated, 1e9 shorthand ok")
    sub.add_argument(
        "--eps-coeff", dest="eps_coeff", type=_parse_fraction, default=DEFAULT_EPS_COEFF
    )
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", "-o", default=None, help="output path, - or omitted for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewcomp",
        description="Clock-skew compensation with guaranteed floating-point bounds.",
    )
    parser.add_argument("--version", action="version", version=f"skewcomp {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    bounds_cmd = commands.add_parser("bounds", help="candidate and reference interval for one triple")
    _add_triple_args(bounds_cmd)

    comp_cmd = commands.add_parser("compensate", help="compensated clock for one triple")
    _add_triple_args(comp_cmd)
    comp_cmd.add_argument("--strict", action="store_true", help="exit 2 on a bounds violation")

    table2_cmd = commands.add_parser("table2", help="bound deltas vs the exact reference")
    _add_table_args(table2_cmd)

    table3_cmd = commands.add_parser("table3", help="compensation errors and iteration counts")
    _add_table_args(table3_cmd)

    commands.add_parser("selftest", help="run the built-in invariant checks")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help/--version and usage errors by exiting;
        # keep main() returning codes so callers never need to catch
        return int(exc.code or 0)
    try:
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "compensate":
            return _cmd_compensate(args)
        if args.command in ("table2", "table3"):
            return _run_table(args, args.command)
        if args.command == "selftest":
            return _selftest()
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
