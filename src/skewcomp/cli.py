"""Command line front end.

Single-shot computations (bounds, compensate) for one (i, D, A) triple,
full table reproduction (table2, table3) over seeded random samples,
and a quick self-check battery (selftest).  Tables print as CSV with
#-prefixed metadata lines or as JSON with the same numeric content,
in columns named after the fields of their rows.  The table writer
(tables) and the battery (selfcheck) are imported only by their own
commands, so a single-shot run compiles neither.

Exit codes: 0 success, 1 validation error, 2 internal check failure
(selftest failure, or a bounds violation under --strict).  A reader that
closes the output early, as `| head` does, ends the run quietly with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import DEFAULT_D, DEFAULT_I_LIST, DEFAULT_N, DEFAULT_RANGE_PPM, DEFAULT_SEED, __version__
from .bounds import DEFAULT_EPS_COEFF, METHODS, candidate_interval, interval_deltas, reference_interval
from .compensator import compensate, oracle_nearest
from .formats import FORMATS

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
    # only here: the single-shot commands, the selftest and the import skip the table pipeline
    from . import tables

    return tables.run(args)


def _selftest(args) -> int:
    # only here: no other command compiles the check battery
    from . import selfcheck

    return selfcheck.run()


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


def _add_table_args(sub, experiment_name) -> None:
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
    sub.set_defaults(run=_run_table, experiment=experiment_name)


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
    _add_table_args(table2_cmd, "bounds_experiment")
    table3_cmd = commands.add_parser("table3", help="compensation errors and iteration counts")
    _add_table_args(table3_cmd, "compensation_experiment")
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
