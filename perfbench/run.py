"""skewcomp benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table-wide --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --report --seed 7             # every workload, both runs
    python3 perfbench/run.py --report --workload clock-stream --seed 7

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The line before it is the environment block.  --report runs
both for each chosen workload and prints every metric by name with its
unit.  The program is imported from the checkout's src/ and never
installed; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import tracer as tracing
import workloads


NPROC = len(os.sched_getaffinity(0))


def _environment(seed: int, counts: dict) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "seed": seed,
        "counts": counts,
        "SKEWCOMP_THREADS": "unset (1)",
    }


def _import_program() -> None:
    """Import skewcomp from this checkout's src/, or exit 2 if it is missing."""
    init = workloads.SRC / "skewcomp" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from the root of a skewcomp checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(workloads.SRC))
    import skewcomp

    if os.path.realpath(skewcomp.__file__) != os.path.realpath(init):
        print(f"error: imported skewcomp from {skewcomp.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, object, dict]:
    """(metrics with units, tally, environment block) of one run."""
    w = workloads.WORKLOADS[name]
    counts = {"table_samples": w.samples, "D": w.D}
    if trace:
        values, tally = workloads.traced_run(w, seed)
        units = {metric: unit for metric, unit, _ in tracing.per_layer_specs()}
        counts["traced_readings"] = w.traced_readings
    else:
        values, tally, run_counts = workloads.timed_run(w, seed, seconds)
        units = workloads.END_TO_END_UNITS
        counts.update(run_counts)
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}
    return metrics, tally, _environment(seed, counts)


def _result(metrics: dict, tally) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _report(names, seed: int, seconds: int) -> int:
    all_correct = True
    for name in names:
        for trace in (False, True):
            metrics, tally, env = run(name, seed, seconds, trace)
            all_correct &= tally.failed == 0
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name} {kind}: attempted={tally.attempted} failed={tally.failed} "
                  f"fail_ratio={tally.failed / tally.attempted:.6g}")
            print(f"   env {json.dumps(env)}")
            for problem in tally.problems:
                print(f"   FAIL {problem}")
            for metric, entry in metrics.items():
                print(f"   {metric:48s} {entry['value']:>16.6g} {entry['unit']}")
            if trace:
                _print_shares(metrics)
    return 0 if all_correct else 1


def _print_shares(metrics: dict) -> None:
    """Each layer function's share of the traced self time, largest first."""
    self_s = {m[: -len(".self_s")]: e["value"] for m, e in metrics.items() if m.endswith(".self_s")}
    total = sum(self_s.values())
    ranked = sorted(self_s.items(), key=lambda item: -item[1])
    print("   self-time shares: " + ", ".join(f"{n} {v / total:.1%}" for n, v in ranked if v / total >= 0.01))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=30, help="length of a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--report", action="store_true", help="run untraced and traced, print every metric")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not args.report and (args.workload is None or args.trace is None):
        parser.error("--workload and --trace are required without --report")

    _import_program()
    # this process and every child it starts share one processor, so the
    # calibration loop times the processor the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.report:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return _report(names, args.seed, args.seconds)

    metrics, tally, env = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in tally.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(_result(metrics, tally)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
