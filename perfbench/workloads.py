"""The three workloads, their timed runs and their traced runs.

Every workload measures both products of the package on its own
population: the ``table2``/``table3`` reproductions, each run as a CLI
process the way a user starts it, and a closed-loop client that calls the
library's ``compensate`` one reading at a time.  The workloads differ in
what they spend their time on:

- table-desk: tables at the README population (D = 1e6, +-100 ppm) with
  2e5 samples.  Only 201 distinct (D, A) cases exist, so sampling is most
  of the run and the interval and walk layers are barely touched.
- table-wide: the same tables with D = 1e9, so almost every sample is its
  own case; the interval, rounding, walk and baseline layers dominate.
- clock-stream: mostly the per-call path with no case dedup, no sampling
  and no import.  Its tables run on one sample, so there they measure the
  CLI's fixed cost: interpreter start, import and one case.

The client is a single closed loop in this process (one call in flight,
the next sent when it returns); table processes run one at a time.
"""

from __future__ import annotations

import io
import os
import random
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from pathlib import Path

import checks
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

I_LIST = (10**6, 10**7, 10**8, 10**9)
RANGE_PPM = 100
BLOCK = 64  # readings per (D, A) draw in the call stream
SETUP_PROBES_PER_ROUND = 2
# first call of the setup probe: i = 1e9 walks an interval of width 776
SETUP_CALL = (10**9, 10**6, 10**6 + 100)
SETUP_SNIPPET = """\
import time
start = time.perf_counter()
import skewcomp.cli
from skewcomp import compensate
j = compensate({i}, {D}, {A}).j
print(time.perf_counter() - start, j)
"""
# python -m skewcomp.cli, reporting the process's own peak RSS on exit.  The
# rusage of a child also counts the parent's pages it started from, so the
# peak is read from the child's memory map instead.
TABLE_SNIPPET = """\
import runpy, sys
try:
    runpy.run_module("skewcomp.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        print(*[line for line in status if line.startswith("VmHWM:")], file=sys.stderr)
"""


# Wall time of calibration_loop on this benchmark's reference machine (a
# 2-vCPU Xeon VM shared with other tenants, Python 3.11).  Timed metrics are
# scaled by CALIBRATION_REF_S / (the loop's time measured next to them).
CALIBRATION_REF_S = 0.018
CALIBRATION_STEPS = 2500
# the call stream is calibrated in slices of this many seconds
CALIBRATION_SLICE_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    D: int  # reference ticks per interval, for the tables and the call stream
    samples: int  # table -n
    table_share: float  # share of the run spent on table processes; the rest on calls
    traced_readings: int  # call-stream length in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table-desk", D=10**6, samples=200_000, table_share=0.8, traced_readings=2_000),
        Workload("table-wide", D=10**9, samples=3_000, table_share=0.8, traced_readings=2_000),
        Workload("clock-stream", D=10**6, samples=1, table_share=0.15, traced_readings=50_000),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "table2_s": "s",
    "table3_s": "s",
    "peak_rss_mb": "MB",
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop of the kind skewcomp runs.

    Fraction arithmetic as in the interval layer and an integer walk as in
    refine, with no skewcomp code, so no change to the program can change
    it.  On a shared machine its time tracks how fast the processor is
    running this process at the moment.
    """
    start = time.perf_counter()
    total = 0
    for k in range(1, CALIBRATION_STEPS):
        q = Fraction(2 * k + 1, 2**24) * Fraction(10**9 + k, 10**6 - k)
        total += (2 * q.numerator + q.denominator) // (2 * q.denominator)
    r, delta_a, delta_b = 0, 1_000_100, 999_901
    for _ in range(40 * CALIBRATION_STEPS):
        r += delta_b
        if 2 * r >= delta_a:
            total += 1
            r -= delta_a
    return time.perf_counter() - start


class Calibration:
    """Brackets each measured item with calibration loops."""

    def __init__(self) -> None:
        self.samples = [calibration_loop()]

    def factor(self) -> float:
        """CALIBRATION_REF_S over the mean loop time just before and just after an item."""
        self.samples.append(calibration_loop())
        return 2 * CALIBRATION_REF_S / (self.samples[-2] + self.samples[-1])


def readings(seed: int, D: int):
    """Endless (i, D, A): A within +-100 ppm of D, redrawn every BLOCK readings.

    i is log-uniform in [1e6, 1e9], so interval widths span about 1 to 776.
    """
    rng = random.Random(seed)
    reach = D * RANGE_PPM // 10**6
    while True:
        A = D + rng.randint(-reach, reach)
        for _ in range(BLOCK):
            yield int(10 ** rng.uniform(6, 9)), D, A


def child_env() -> dict[str, str]:
    """The environment for program processes: this checkout's src, one thread."""
    env = dict(os.environ)
    env.pop("SKEWCOMP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[float, int, bytes]:
    """(wall s, exit code, stdout+stderr) of one child process."""
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def run_table(table: str, w: Workload, seed: int, env, digests, tally: Tally) -> tuple[float, float]:
    """(wall s, peak RSS MB) of one table CLI process, whose output is checked."""
    out_path = OUT / f"{table}-{w.name}.csv"
    argv = [sys.executable, "-c", TABLE_SNIPPET, *table_args(table, w, seed, out_path)]
    wall, code, output = run_child(argv, env)
    problems = table_problems(table, w, seed, out_path, code, output, digests)
    peak = [line.split()[1] for line in output.decode(errors="replace").splitlines() if line.startswith("VmHWM:")]
    if not peak:
        problems.append(f"{table}: no peak RSS reported")
    tally.record(problems)
    return wall, int(peak[-1]) / 1024 if peak else 0.0


def table_args(table: str, w: Workload, seed: int, out_path: Path) -> list[str]:
    return [
        table,
        "-n", str(w.samples),
        "--seed", str(seed),
        "--D", str(w.D),
        "--i", ",".join(str(i) for i in I_LIST),
        "-o", str(out_path),
    ]  # fmt: skip


def table_problems(table, w, seed, out_path, code, output, digests) -> list[str]:
    if code != 0:
        return [f"{table} exited {code}: {output[-300:]!r}"]
    key = checks.table_key(table, w.D, w.samples, seed, I_LIST)
    return checks.check_table(table, out_path.read_bytes(), key, I_LIST, digests)


def setup_probe(env, tally: Tally) -> float | None:
    """Import of skewcomp.cli plus the first compensate call, in a fresh interpreter."""
    i, D, A = SETUP_CALL
    argv = [sys.executable, "-c", SETUP_SNIPPET.format(i=i, D=D, A=A)]
    _, code, output = run_child(argv, env)
    fields = output.split()
    ok = code == 0 and len(fields) == 2 and int(fields[1]) == (2 * i * D + A) // (2 * A)
    tally.record([] if ok else [f"setup probe exited {code}: {output[-300:]!r}"])
    return float(fields[0]) if ok else None


def call_stream(source, deadline: float, compensate, oracle, tally: Tally, latencies=None) -> None:
    """Closed loop over readings until source ends or perf_counter passes deadline.

    Calls are timed one by one; their results are checked against the
    oracle after each block, outside the timed calls.
    """
    clock = time.perf_counter_ns
    while time.perf_counter() < deadline:
        block = list(islice(source, BLOCK))
        if not block:
            return
        results = []
        for i, D, A in block:
            start = clock()
            result = compensate(i, D, A)
            end = clock()
            results.append(result)
            if latencies is not None:
                latencies.append(end - start)
        for (i, D, A), result in zip(block, results):
            want = oracle(i, D, A)
            problems = []
            if result.j != want:
                problems.append(f"compensate({i}, {D}, {A}).j = {result.j}, oracle {want}")
            if result.bounds_violated:
                problems.append(f"compensate({i}, {D}, {A}) violated its practical interval")
            tally.record(problems)


def _quantile(sorted_values, q: float):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def timed_run(w: Workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """End-to-end metrics measured with tracing off, the tally and the operation counts.

    The run is a series of rounds, each with set-up probes, one table2, one
    table3 and a slice of the call stream sized to keep the workload's
    share.  Every probe, table process and quarter second of calls is bracketed by
    calibration loops and its times are scaled by the calibration factor:
    on a machine shared with other tenants the processor's speed drifts by
    15-20% over tens of seconds, and the scaling cancels most of that drift.
    """
    import skewcomp

    OUT.mkdir(exist_ok=True)
    env = child_env()
    digests = checks.load_digests()
    tally = Tally()
    setup_probe(env, Tally())  # may compile bytecode, which is not a user's set-up

    calibration = Calibration()
    setup, rss = [], []
    walls = {"table2": [], "table3": []}
    latencies = array("d")
    source = readings(seed, w.D)
    end = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_PROBES_PER_ROUND):
            probe = setup_probe(env, tally)
            factor = calibration.factor()
            if probe is not None:
                setup.append(probe * factor)
        tables_s = 0.0
        for table in walls:
            wall, peak = run_table(table, w, seed, env, digests, tally)
            walls[table].append(wall * calibration.factor())
            rss.append(peak)
            tables_s += wall
        stream_end = time.perf_counter() + tables_s * (1 - w.table_share) / w.table_share
        while time.perf_counter() < stream_end:
            raw = array("q")
            slice_end = min(time.perf_counter() + CALIBRATION_SLICE_S, stream_end)
            call_stream(source, slice_end, skewcomp.compensate, skewcomp.oracle_nearest, tally, raw)
            factor = calibration.factor()
            latencies.extend(ns * factor for ns in raw)
        if time.perf_counter() >= end:
            break

    ordered = sorted(latencies)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "table2_s": statistics.median(walls["table2"]),
        "table3_s": statistics.median(walls["table3"]),
        "peak_rss_mb": max(rss),
        "calls_per_s": len(ordered) / (sum(ordered) / 1e9),
        "call_p50_us": _quantile(ordered, 0.50) / 1e3,
        "call_p99_us": _quantile(ordered, 0.99) / 1e3,
    }
    counts = {
        "rounds": len(walls["table2"]),
        "setup_probes": len(setup),
        "calls": len(ordered),
        "calibration_s_median": statistics.median(calibration.samples),
    }
    return metrics, tally, counts


def _in_process_work(w: Workload, seed: int, digests, tally: Tally) -> None:
    """One table2, one table3 and a fixed call stream, all in this process."""
    import skewcomp
    import skewcomp.cli

    for table in ("table2", "table3"):
        out_path = OUT / f"{table}-{w.name}-traced.csv"
        with redirect_stdout(io.StringIO()) as captured:
            code = skewcomp.cli.main(table_args(table, w, seed, out_path))
        tally.record(table_problems(table, w, seed, out_path, code, captured.getvalue(), digests))
    source = islice(readings(seed, w.D), w.traced_readings)
    call_stream(source, float("inf"), skewcomp.compensate, skewcomp.oracle_nearest, tally)


def traced_run(w: Workload, seed: int) -> tuple[dict, Tally]:
    """Per-layer metrics: the same fixed work untraced, then traced.

    The traced wall time minus the untraced one is the tracing overhead.
    """
    import skewcomp.cli  # noqa: F401  (import cost belongs to setup_s, not to either pass)

    OUT.mkdir(exist_ok=True)
    os.environ.pop("SKEWCOMP_THREADS", None)
    digests = checks.load_digests()
    tally = Tally()

    start = time.perf_counter()
    _in_process_work(w, seed, digests, tally)
    untraced = time.perf_counter() - start

    trace = tracing.Tracer()
    with tracing.patched(trace):
        start = time.perf_counter()
        _in_process_work(w, seed, digests, tally)
        traced = time.perf_counter() - start
    trace.write(OUT / f"spans-{w.name}.csv.gz")

    metrics = tracing.layer_metrics(trace)
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = (traced - untraced) / untraced
    return metrics, tally
