"""Tests of the benchmark's own code, outside the package's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

import checks
import tracer as tracing
import workloads

sys.path.insert(0, str(workloads.SRC))

I_LIST = (10**6, 10**9)
TABLE3 = (
    "# tool=skewcomp table3\n"
    + checks.TABLE3_HEADER
    + "\n"
    + "".join(
        f"{algorithm},binary32,{i},{err_min},0,-1.0000e-01,{it},{it},{it}.0000e+00,0\n"
        for algorithm, err_min, it in (("naive", -3, 0), ("practical", -1, 9), ("approximate", -1, 9))
        for i in I_LIST
    )
).encode()


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 25)
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [30, 20, 10, 40]


def test_layer_metrics_aggregate_spans_by_name():
    tracer = tracing.Tracer()
    tracer.names += ["compensator.compensate", "compensator.refine", "compensator.compensate"]
    tracer.starts.extend([0, 2, 10])
    tracer.ends.extend([8, 7, 13])
    tracer.parents.extend([-1, 0, -1])
    metrics = tracing.layer_metrics(tracer)
    assert metrics["compensator.compensate.calls"] == 2
    assert metrics["compensator.compensate.self_s"] == pytest.approx(6e-9)
    assert metrics["compensator.refine.self_s"] == pytest.approx(5e-9)


def test_stream_is_deterministic_per_seed():
    first = list(islice(workloads.readings(7, 10**6), 1000))
    assert first == list(islice(workloads.readings(7, 10**6), 1000))
    assert first != list(islice(workloads.readings(8, 10**6), 1000))
    for k, (i, D, A) in enumerate(first):
        assert 10**6 <= i <= 10**9
        assert abs(A - D) <= 100
        assert A == first[k - k % workloads.BLOCK][2]


def test_valid_table_passes():
    key = "table3 test"
    assert checks.check_table("table3", TABLE3, key, I_LIST, {key: checks.digest(TABLE3)}) == []
    assert checks.check_table("table3", TABLE3, key, I_LIST, {}) == []


def test_digest_catches_a_single_flipped_byte():
    key = "table3 test"
    digests = {key: checks.digest(TABLE3)}
    for position in (0, len(TABLE3) // 2, len(TABLE3) - 2):
        flipped = bytearray(TABLE3)
        flipped[position] ^= 0x01
        problems = checks.check_table("table3", bytes(flipped), key, I_LIST, digests)
        assert any("digest" in p for p in problems), position


def test_invariants_hold_without_a_digest():
    bad_err = TABLE3.replace(b"practical,binary32,1000000,-1,", b"practical,binary32,1000000,-2,")
    bad_violations = TABLE3.replace(b"9.0000e+00,0\napproximate", b"9.0000e+00,3\napproximate")
    bad_rows = TABLE3.replace(b"approximate,binary32,1000000000", b"approximate,binary64,1000000000")
    for table in (bad_err, bad_violations, bad_rows):
        assert table != TABLE3
        assert checks.check_table("table3", table, "unrecorded", I_LIST, {}) != []


def test_patched_reaches_every_importer_and_restores():
    import skewcomp
    from skewcomp import bounds, compensator, experiment

    original = bounds.candidate_interval
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert experiment.candidate_interval is compensator.candidate_interval is skewcomp.candidate_interval
        assert compensator.candidate_interval is not original
        result = skewcomp.compensate(10**9, 10**6, 10**6 + 100)
    assert compensator.candidate_interval is original
    assert result.j == skewcomp.oracle_nearest(10**9, 10**6, 10**6 + 100)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["compensator.compensate.calls"] == 1
    assert metrics["bounds.candidate_interval.practical.calls"] == 1
    assert metrics["compensator.refine.ge100.iterations"] == result.iterations == 776
    added_by_traced_run = {"trace.wall_s", "trace.overhead_s", "trace.overhead_ratio"}
    assert set(metrics) | added_by_traced_run == {name for name, _, _ in tracing.per_layer_specs()}


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_specs()
