"""Command line and package surface: output format, exit codes, golden rows, exports."""

import csv
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skewcomp
from skewcomp.cli import TABLE2_HEADER, TABLE3_HEADER, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_exact_line(capsys):
    code, out, _ = run(
        capsys,
        "bounds", "--i", "10", "--D", "1", "--A", "2",
        "--method", "theoretical", "--precision", "binary64",
    )
    assert code == 0
    assert out == "lb=4 ub=6 dlb=0 dub=0\n"


def test_compensate_line(capsys):
    code, out, _ = run(
        capsys,
        "compensate", "--i", "7", "--D", "3", "--A", "5",
        "--method", "practical", "--precision", "binary32",
    )
    assert code == 0
    assert out == "j=4 iterations=1 err=0 case=case1 bounds_violated=False\n"


def test_compensate_strict_violation_exits_2(capsys):
    code, out, err = run(
        capsys,
        "compensate", "--i", "1000000000", "--D", "1", "--A", "3",
        "--method", "approximate", "--eps-coeff", "0", "--strict",
    )
    assert code == 2
    assert "bounds_violated=True" in out
    assert "j=333333333" in out  # a miss still yields the exact value


def test_compensate_interval_wholly_above_i(capsys):
    # the approximate interval clips to empty: a miss, not an error
    argv = (
        "compensate", "--i", "67108869", "--D", "2147483647", "--A", "2147483648",
        "--method", "approximate", "--eps-coeff", "0",
    )
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == "j=67108869 iterations=0 err=0 case=case1 bounds_violated=True\n"
    code, out, _ = run(capsys, *argv, "--strict")
    assert code == 2
    assert "bounds_violated=True" in out


def test_validation_error_exits_1(capsys):
    # one input per error class the CLI reports as a usage error
    cases = [
        (("bounds", "--i", "10", "--D", "5", "--A", "2"), "need D < A"),  # InvalidInput
        (("bounds", "--i", "10", "--D", "1", "--A", "0"), "A = 0"),  # ZeroDivisor
        (("compensate", "--i", "10", "--D", "10", "--A", "5"), "need 0 < D < 2A"),  # SkewOutOfRange
        (("compensate", "--i", "4611686018427387904", "--D", "999999", "--A", "1000000"), "2**63"),  # OverflowRisk
        (("compensate", "--i", "-1", "--D", "3", "--A", "5"), "need i >= 0"),  # InvalidInput from compensate
    ]
    for argv, message in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert message in err, argv


def test_unknown_method_exits_1(capsys):
    code = main(["bounds", "--i", "1", "--D", "1", "--A", "2", "--method", "magic"])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_bad_integer_exits_1(capsys):
    # an integer flag takes no a/b form, even one that reduces to an integer
    for spelling in ("1.5", "4/2"):
        code, _, err = run(capsys, "bounds", "--i", spelling, "--D", "1", "--A", "2")
        assert code == 1, spelling
        assert "not an integer" in err, spelling


def test_integer_over_the_digit_limit_exits_1(capsys):
    # int(str) stops at 4,300 digits; a power of ten still parses as 1e5000
    code, _, err = run(capsys, "bounds", "--i", "1" + "0" * 4300, "--D", "1", "--A", "2")
    assert code == 1
    assert "Python's 4300-digit limit" in err and "not a rational" not in err
    # 1e5000 parses, and then its result is over the same limit when printed
    code, _, err = run(capsys, "bounds", "--i", "1e5000", "--D", "1", "--A", "2")
    assert code == 1 and "usage" not in err and "4300 digits" in err


def test_scientific_shorthand(capsys):
    for spelling in ("1e1", "1_0", " 10 "):
        code, out, _ = run(
            capsys,
            "bounds", "--i", spelling, "--D", "1", "--A", "2",
            "--method", "theoretical", "--precision", "binary64",
        )
        assert code == 0, spelling
        assert out.startswith("lb=4 ub=6"), spelling


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("bounds", "--i", "10", "--D", "1", "--A", "2"), flag)
        for flag in ("--i", "--D", "--A", "--eps-coeff")
    ]
    + [(("table2",), flag) for flag in ("--i", "--D", "-n", "--seed", "--range-ppm", "--eps-coeff")],
    ids=lambda value: value if isinstance(value, str) else value[0],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv, flag):
    for spelling in ("inf", "Infinity", "nan"):
        code, out, err = run(capsys, *argv, flag, spelling)
        assert code == 1, spelling
        assert out == ""
        assert err.startswith("usage:") and f"{spelling!r}" in err, spelling


def test_statistic_too_large_exits_1_and_writes_no_file(tmp_path, capsys):
    # a statistic too large for a float, and a metadata integer over the
    # digit limit for str(): neither creates -o, nor touches an existing one
    target = tmp_path / "out.csv"
    for argv in (("-n", "5", "--i", "1e400"), ("--D", "1e5000", "-n", "1", "--i", "1")):
        code, out, err = run(capsys, "table2", *argv, "-o", str(target))
        assert code == 1, argv
        assert err.startswith("error: "), argv
        assert not target.exists(), argv
        target.write_bytes(b"kept\n")
        assert run(capsys, "table2", *argv, "-o", str(target))[0] == 1, argv
        assert target.read_bytes() == b"kept\n", argv
        target.unlink()


def test_negative_eps_coeff_exits_1(capsys):
    # the = form: argparse reads a bare -1e-12 as a flag
    triple = ("--i", "1e9", "--D", "1", "--A", "2", "--method", "approximate")
    for argv in (("bounds", *triple), ("compensate", *triple), ("table2", "-n", "5"), ("table3", "-n", "5")):
        code, out, err = run(capsys, *argv, "--eps-coeff=-1e-12")
        assert code == 1, argv
        assert out == "", argv
        assert "eps_coeff >= 0" in err, argv


def test_eps_coeff_accepts_rational_spellings(capsys):
    for spelling in ("1/10000000", "1e-7", "0.0000001"):
        code, out, _ = run(
            capsys,
            "compensate", "--i", "1000000", "--D", "1", "--A", "2",
            "--method", "approximate", "--eps-coeff", spelling,
        )
        assert code == 0
        assert out.startswith("j=500000 ")


def _parse_table(text):
    meta = [line for line in text.splitlines() if line.startswith("#")]
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return meta, body[0].split(","), rows


def test_table2_csv_shape(capsys):
    code, out, _ = run(capsys, "table2", "-n", "500", "--seed", "42", "--i", "1e6,1e7")
    assert code == 0
    meta, header, rows = _parse_table(out)
    assert header == TABLE2_HEADER
    assert len(rows) == 4 * 2  # configs x i values
    assert any("seed=42" in line for line in meta)
    first = rows[0]
    assert first["method"] == "theoretical"
    assert first["precision"] == "binary64"
    # binary64 evaluation is exact at these scales regardless of seed
    assert first["dlb_min"] == "0" and first["dub_max"] == "0"
    assert first["dlb_avg"] == "0.0000e+00"


def test_table3_csv_shape(capsys):
    code, out, _ = run(capsys, "table3", "-n", "500", "--seed", "42", "--i", "1e6")
    assert code == 0
    meta, header, rows = _parse_table(out)
    assert header == TABLE3_HEADER
    assert len(rows) == 3
    naive = rows[0]
    # the naive row at i=1e6 is error free on this population at any seed
    assert (naive["err_min"], naive["err_max"], naive["err_avg"]) == ("0", "0", "0.0000e+00")
    assert naive["violations"] == "0"


# sha256 of the stdout bytes at --seed 42 -n 2000, keyed by (table, D) for
# CSV and (table, D, format) otherwise; the CSV digests were recorded from
# the per-sample randint draw
GOLDEN_TABLES = {
    ("table2", "1e6"): "ae89943c48cbcff4d40ba6c8ec0297ed8b2929149a316a63ffff18f3ed06473c",
    ("table3", "1e6"): "66526c9d74229f34af302078bcbd5e262dc79a89d180696484e022ba43d4cac9",
    ("table2", "1e9"): "998e7d950de9f631cac84cfb6e856e80e7f604cc3785b411f3645a35cfacd315",
    ("table3", "1e9"): "3f6be8f73392dc762ebf870d623cc80a80be0aef35c77501c4b41d8765b12cdb",
    ("table2", "1e6", "json"): "34ee137e16cce7a02f10ae45eb211254f59d77e04a1bae833a757f6f2480db97",
    ("table3", "1e6", "json"): "7801eac5e175680bd4a794f056f4f6e50ac01353a6bcdab29204d1fad22a6c85",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_TABLES), ids="-".join)
def test_table_bytes_are_golden(capsys, key):
    table, D, *fmt = key
    argv = [table, "--seed", "42", "-n", "2000", "--D", D, *(f"--format={f}" for f in fmt)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GOLDEN_TABLES[key]


def run_fresh(script, *argv):
    """stdout of script in a fresh interpreter that imports this checkout's skewcomp."""
    src = str(Path(skewcomp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_table_run_does_not_import_numpy_random():
    # numpy.random costs about 6 MB of resident memory per process
    script = (
        "import sys\n"
        "from skewcomp.cli import main\n"
        "code = main(['table2', '-n', '1000', '--i', '1e6', '-o', sys.argv[1]])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    assert run_fresh(script, os.devnull).split() == ["0", "False"]


def test_compensate_does_not_import_numpy():
    # only drawing a table population needs numpy; a node that imports the
    # package and compensates readings does not pay for importing it
    script = (
        "import sys\n"
        "import skewcomp.cli\n"
        "from skewcomp import compensate\n"
        "print(compensate(10**9, 10**6, 10**6 + 100).j, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(script).split() == [str((2 * 10**15 + 10**6 + 100) // (2 * (10**6 + 100))), "False"]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the result records are named tuples; dataclasses would load inspect,
    # ast, dis and tokenize on every import of the package
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import skewcomp.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert run_fresh(script).strip() == "[]"


def test_every_exported_name_resolves():
    # a stale __all__ entry otherwise fails only under a star import
    modules = [skewcomp] + [
        importlib.import_module(f"skewcomp.{info.name}") for info in pkgutil.iter_modules(skewcomp.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    # a name two modules export would be shadowed by the later star import
    assert len(skewcomp.__all__) == len(set(skewcomp.__all__))
    parts = ("rationals", "formats", "bounds", "compensator", "experiment")
    assert skewcomp.__all__ == ["__version__"] + [
        name for part in parts for name in importlib.import_module(f"skewcomp.{part}").__all__
    ]


def test_range_of_half_the_clock_exits_1(capsys):
    code, out, err = run(capsys, "table2", "--range-ppm", "6e5", "-n", "10")
    assert code == 1
    assert out == ""
    assert "range_ppm must be below 500000" in err


def test_table_runs_are_deterministic(capsys):
    _, first, _ = run(capsys, "table2", "-n", "400", "--seed", "9", "--i", "1e6,1e8")
    _, second, _ = run(capsys, "table2", "-n", "400", "--seed", "9", "--i", "1e6,1e8")
    assert first == second


def test_csv_json_round_trip(capsys):
    code, csv_text, _ = run(capsys, "table2", "-n", "300", "--seed", "3", "--i", "1e6,1e7")
    assert code == 0
    code, json_text, _ = run(
        capsys, "table2", "-n", "300", "--seed", "3", "--i", "1e6,1e7", "--format", "json"
    )
    assert code == 0
    _, _, csv_rows = _parse_table(csv_text)
    doc = json.loads(json_text)
    assert len(doc["rows"]) == len(csv_rows)
    for got, want in zip(doc["rows"], csv_rows):
        for key, value in want.items():
            if key in ("method", "precision"):
                assert got[key] == value
            else:
                assert float(got[key]) == float(value)
    assert doc["meta"]["seed"] == "3"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "table3", "-n", "200", "--seed", "1", "--i", "1e6", "-o", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert TABLE3_HEADER == text.splitlines()[-4].split(",")  # header above 3 rows
    assert out == ""


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "ok: bounds_violated iff the oracle lies outside the candidate interval" in out
    assert "selftest passed" in out


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "skewcomp" in capsys.readouterr().out
