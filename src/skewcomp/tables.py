"""The table writer behind `skewcomp table2` and `skewcomp table3`.

run draws the population with experiment.scalar_cases, whose rows take
Python ints and floats without numpy, for a table of at most
experiment.SCALAR_TABLE_LIMIT samples times i values, and with
sample_cases, for the numpy kernel, above it; one call of the named
experiment computes the rows.  It writes them as CSV with
#-prefixed metadata lines or as JSON with the same numeric content.  The
columns are the row type's fields, each StatSummary field expanded to
its _min, _max and _avg columns.  The CLI imports this module only for
a table command, so the single-shot commands and the selftest do not
compile it.
"""

from __future__ import annotations

import contextlib
import sys

from . import __version__, experiment


def _columns(row):
    """(column, cell) pairs of a table row in field order.

    A StatSummary field f gives f_min, f_max and f_avg, the average
    printed with 4 significant decimals; any other field gives its name.
    """
    for name, value in zip(row._fields, row):
        if isinstance(value, experiment.StatSummary):
            yield from ((f"{name}_min", value.min), (f"{name}_max", value.max))
            yield f"{name}_avg", f"{float(value.avg):.4e}"
        else:
            yield name, value


def run(args) -> int:
    """Write the table args.command names and give the exit code 0; bad input raises."""
    # experiment's functions are looked up at each run, so a function replaced there is the one called
    small = args.samples * len(args.i) <= experiment.SCALAR_TABLE_LIMIT
    draw = experiment.scalar_cases if small else experiment.sample_cases
    population = draw(args.seed, args.samples, args.D, args.range_ppm)
    rows = getattr(experiment, args.experiment)(population, args.i, eps_coeff=args.eps_coeff)
    # cells and metadata strings first: an overflowing float() or str() fails before -o truncates a file
    table = [dict(_columns(row)) for row in rows]
    meta = {
        "tool": f"skewcomp {__version__} {args.command}",
        "seed": str(args.seed),
        "samples": str(args.samples),
        "D": str(args.D),
        "range_ppm": str(args.range_ppm),
        "eps_coeff": str(args.eps_coeff),
        "i": ",".join(str(i) for i in args.i),
        "distribution": "skew uniform on the 1e-9 ppm lattice in [-range_ppm, +range_ppm]",
        "conventions": "dlb=ref_lb-lb dub=ub-ref_ub err=floor64-j avg printed as %.4e",
    }
    if args.output and args.output != "-":
        destination = open(args.output, "w", newline="")
    else:
        destination = contextlib.nullcontext(sys.stdout)
    with destination as out:
        if args.format == "json":
            import json  # only here: CSV runs and the import skip json and its submodules
            # the *_avg cells become the numbers their printed text reads as
            for row in table:
                for name in row:
                    if name.endswith("_avg"):
                        row[name] = float(row[name])
            json.dump({"meta": meta, "rows": table}, out, indent=2)
            out.write("\n")
        else:
            for key, value in meta.items():
                out.write(f"# {key}={value}\n")
            out.write(",".join(table[0]) + "\n")
            for row in table:
                out.write(",".join(map(str, row.values())) + "\n")
    return 0
