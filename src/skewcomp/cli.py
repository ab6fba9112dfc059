"""Command line front end.

Single-shot computations (bounds, compensate) for one (i, D, A) triple,
full table reproduction (table2, table3) over seeded random samples,
and a quick self-check battery (selftest).  Tables print as CSV with
#-prefixed metadata lines or as JSON with the same numeric content.

Exit codes: 0 success, 1 validation error, 2 internal check failure
(selftest failure, or a bounds violation under --strict).  A reader that
closes the output early, as `| head` does, ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from . import DEFAULT_D, DEFAULT_I_LIST, DEFAULT_N, DEFAULT_RANGE_PPM, DEFAULT_SEED, __version__
from .bounds import (
    DEFAULT_EPS_COEFF,
    METHODS,
    candidate_interval,
    clock_estimate,
    emulated_clock_estimate,
    interval_deltas,
    reference_interval,
    theoretical_coefficients,
)
from .compensator import compensate, oracle_nearest
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

# ValueError covers InvalidInput, OverflowError OverflowRisk and huge floats, OSError an unwritable
# -o path; parsed inputs are ints, Fractions and choices, so a TypeError is a bug
_USER_ERRORS = (ValueError, OverflowError, OSError)


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
    """A table row's cells in field order; a StatSummary, its only tuple cell, gives min, max, avg.

    Averages print with 4 significant decimals.
    """
    cells = []
    for value in row:
        cells += [value.min, value.max, f"{float(value.avg):.4e}"] if isinstance(value, tuple) else [value]
    return cells


def _emit_table(cells, header, meta, fmt, out) -> None:
    if fmt == "json":
        import json  # only here: CSV runs and the import skip json and its submodules
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


def _table_meta(args) -> dict:
    return {
        "tool": f"skewcomp {__version__} {args.command}",
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


def _run_table(args) -> int:
    # only here: the single-shot commands and the import skip the table pipeline
    from . import experiment

    cases = experiment.sample_cases(args.seed, args.samples, args.D, args.range_ppm)
    rows = getattr(experiment, args.experiment)(cases, args.i, eps_coeff=args.eps_coeff)
    # cells and metadata strings first: an overflowing float() or str() fails before -o truncates a file
    cells = [_cells(row) for row in rows]
    meta = {key: str(value) for key, value in _table_meta(args).items()}
    if args.output and args.output != "-":
        with open(args.output, "w", newline="") as out:
            _emit_table(cells, args.header, meta, args.format, out)
    else:
        _emit_table(cells, args.header, meta, args.format, sys.stdout)
    return 0


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


def _selftest(args) -> int:
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


def _add_triple_args(sub, run) -> None:
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
    sub.set_defaults(run=run)


def _add_table_args(sub, experiment_name, header) -> None:
    sub.add_argument("--samples", "-n", type=_parse_int, default=DEFAULT_N)
    sub.add_argument("--seed", type=_parse_int, default=DEFAULT_SEED)
    sub.add_argument("--D", type=_parse_int, default=DEFAULT_D)
    sub.add_argument("--range-ppm", dest="range_ppm", type=_parse_fraction, default=DEFAULT_RANGE_PPM)
    sub.add_argument("--i", type=_parse_i_list, default=DEFAULT_I_LIST, help="comma separated, 1e9 shorthand ok")
    sub.add_argument(
        "--eps-coeff", dest="eps_coeff", type=_parse_fraction, default=DEFAULT_EPS_COEFF
    )
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", "-o", default=None, help="output path, - or omitted for stdout")
    sub.set_defaults(run=_run_table, experiment=experiment_name, header=header)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewcomp",
        description="Clock-skew compensation with guaranteed floating-point bounds.",
    )
    parser.add_argument("--version", action="version", version=f"skewcomp {__version__}")
    # each command's run(args) gives the exit code
    commands = parser.add_subparsers(dest="command", required=True)
    _add_triple_args(commands.add_parser("bounds", help="candidate and reference interval for one triple"), _cmd_bounds)
    comp_cmd = commands.add_parser("compensate", help="compensated clock for one triple")
    _add_triple_args(comp_cmd, _cmd_compensate)
    comp_cmd.add_argument("--strict", action="store_true", help="exit 2 on a bounds violation")
    table2_cmd = commands.add_parser("table2", help="bound deltas vs the exact reference")
    _add_table_args(table2_cmd, "bounds_experiment", TABLE2_HEADER)
    table3_cmd = commands.add_parser("table3", help="compensation errors and iteration counts")
    _add_table_args(table3_cmd, "compensation_experiment", TABLE3_HEADER)
    commands.add_parser("selftest", help="run the built-in invariant checks").set_defaults(run=_selftest)
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
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader left early; stdout goes to devnull so the shutdown flush prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
