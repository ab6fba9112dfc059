"""Command line and package surface: output format, exit codes, golden rows, exports."""

import ast
import csv
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import skewcomp
from skewcomp import cli, experiment, selfcheck
from skewcomp.cli import main

TABLE2_HEADER = ["method", "precision", "i", "dlb_min", "dlb_max", "dlb_avg", "dub_min", "dub_max", "dub_avg"]
TABLE3_HEADER = [
    "algorithm", "precision", "i", "err_min", "err_max", "err_avg", "iter_min", "iter_max", "iter_avg", "violations"
]


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
        (("bounds", "--i", "10", "--D", "1", "--A", "0"), "A > 0"),  # InvalidInput
        (("compensate", "--i", "10", "--D", "10", "--A", "5"), "need 0 < D < 2A"),  # InvalidInput
        (("compensate", "--i", "4611686018427387904", "--D", "999999", "--A", "1000000"), "2**63"),  # OverflowRisk
        (("compensate", "--i", "-1", "--D", "3", "--A", "5"), "need i, D, A >= 0"),  # InvalidInput from compensate
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


@pytest.mark.parametrize("command, row_type", [("table2", experiment.BoundsRow), ("table3", experiment.CompRow)])
def test_columns_are_the_row_fields(capsys, command, row_type):
    # each StatSummary field f is the three columns f_min, f_max, f_avg; any other field is one
    hints = typing.get_type_hints(row_type)
    want = []
    for field in row_type._fields:
        stats = hints[field] is experiment.StatSummary
        want += [f"{field}_{stat}" for stat in ("min", "max", "avg")] if stats else [field]
    _, out, _ = run(capsys, command, "-n", "50", "--i", "1e6,1e8")
    assert _parse_table(out)[1] == want
    _, out, _ = run(capsys, command, "-n", "50", "--i", "1e6,1e8", "--format", "json")
    rows = json.loads(out)["rows"]
    assert rows and all(list(row) == want for row in rows)


@pytest.mark.parametrize("table", ["table2", "table3"])
@pytest.mark.parametrize(
    "samples, i_list, scalar",
    [("3584", "1e6,1e7,1e8,1e9", True), ("14337", "1e9", False)],
    ids=["at-limit-scalar", "past-limit-kernel"],
)
def test_both_table_routes_write_the_same_bytes(capsys, monkeypatch, table, samples, i_list, scalar):
    # samples x i values at the scalar route's limit of 14336 and one past it, at D = 1e9,
    # where nearly every sample is its own case; each side is run again on the route it did not take
    # both routes must reach the public experiment, whose traced span would otherwise read 0 calls
    argv = (table, "-n", samples, "--D", "1e9", "--i", i_list, "--seed", "7")
    name = {"table2": "bounds_experiment", "table3": "compensation_experiment"}[table]
    calls = {"scalar_cases": [], name: []}

    def counted(key):
        real = getattr(experiment, key)

        def call(*args, **kwargs):
            calls[key].append(args)
            return real(*args, **kwargs)

        return call

    for key in calls:
        monkeypatch.setattr(experiment, key, counted(key))
    taken = run(capsys, *argv)
    assert taken[0] == 0 and bool(calls["scalar_cases"]) is scalar and len(calls[name]) == 1
    monkeypatch.setattr(experiment, "SCALAR_TABLE_LIMIT", 0 if scalar else 10**9)
    assert run(capsys, *argv) == taken and len(calls["scalar_cases"]) == 1 and len(calls[name]) == 2


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


def fresh_env(**overrides):
    """The environment of a fresh interpreter that imports this checkout's skewcomp."""
    src = str(Path(skewcomp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **overrides}


def run_fresh(script, *argv):
    """stdout of script in a fresh interpreter that imports this checkout's skewcomp."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=fresh_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_table_run_does_not_import_numpy_random():
    # numpy.random costs about 6 MB of resident memory per process; the table is
    # past the scalar route's limit (14337 samples x 1 i value > 14336), so numpy loads
    script = (
        "import sys\n"
        "from skewcomp.cli import main\n"
        "code = main(['table2', '-n', '14337', '--i', '1e6', '-o', sys.argv[1]])\n"
        "print(code, 'numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    assert run_fresh(script, os.devnull).split() == ["0", "True", "False"]


def test_import_and_csv_table_run_do_not_import_json():
    # only --format json needs json, whose import costs about 2 ms per process
    script = (
        "import sys\n"
        "import skewcomp.cli\n"
        "print('json' in sys.modules)\n"
        "code = skewcomp.cli.main(['table3', '-n', '1000', '--i', '1e6', '-o', sys.argv[1]])\n"
        "print(code, 'json' in sys.modules)\n"
    )
    assert run_fresh(script, os.devnull).split() == ["False", "0", "False"]


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


# the modules the CLI imports only for the commands that need them
LATE_MODULES = ("skewcomp.experiment", "skewcomp.kernel", "numpy", "skewcomp.tables", "skewcomp.selfcheck")


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import skewcomp", []),
        ("import skewcomp\nassert skewcomp.DEFAULT_N == 10**5", []),
        ("import skewcomp.cli", []),
        (
            "import skewcomp.cli\nfrom skewcomp import compensate\n"
            "assert compensate(10**9, 10**6, 10**6 + 100).j == (2 * 10**15 + 10**6 + 100) // (2 * (10**6 + 100))",
            [],
        ),
        ("from skewcomp.cli import main\nassert main(['compensate', '--i', '1e9', '--D', '1e6', '--A', '1000100']) == 0", []),
        ("from skewcomp.cli import main\nassert main(['bounds', '--i', '1e9', '--D', '1e6', '--A', '1000100']) == 0", []),
        (
            "from skewcomp.cli import main\nassert main(['table2', '-n', '1', '-o', sys.argv[1]]) == 0",
            ["skewcomp.experiment", "skewcomp.tables"],
        ),
        (
            "from skewcomp.cli import main\nassert main(['table2', '-n', '3000', '--D', '1e9', '-o', sys.argv[1]]) == 0",
            ["skewcomp.experiment", "skewcomp.tables"],
        ),
        (
            "from skewcomp.cli import main\nassert main(['table2', '-n', '3585', '--D', '1e9', '-o', sys.argv[1]]) == 0",
            ["skewcomp.experiment", "skewcomp.kernel", "numpy", "skewcomp.tables"],
        ),
        ("import skewcomp.experiment", ["skewcomp.experiment"]),
        ("from skewcomp import generate_samples\nassert len(generate_samples(42, 1000)) == 1000", ["skewcomp.experiment"]),
        (
            "from skewcomp import experiment\nassert experiment.sample_cases(42, 10).weight.sum() == 10",
            ["skewcomp.experiment", "skewcomp.kernel", "numpy"],
        ),
        ("from skewcomp.cli import main\nassert main(['selftest']) == 0", ["skewcomp.selfcheck"]),
    ],
    ids=[
        "import", "read-default", "import-cli", "compensate", "cli-compensate", "cli-bounds", "cli-table2",
        "cli-table2-wide", "cli-table2-kernel", "import-experiment", "generate-samples", "sample-cases", "cli-selftest",
    ],
)
def test_only_a_table_run_loads_the_table_pipeline(statement, loaded):
    # the experiment module and the table writer are compiled and imported
    # only by a process that draws a table, the kernel module and numpy only by
    # one that calls sample_cases or whose table is above the scalar route's
    # limit (3585 samples x 4 i values > 14336, where 3000 x 4, table-wide's
    # size, is below it; generate_samples draws with the stdlib), and the check
    # battery only by a selftest; a node that imports the package and
    # compensates readings pays for none of them
    script = f"import sys\n{statement}\nprint([m for m in {LATE_MODULES!r} if m in sys.modules])\n"
    assert run_fresh(script, os.devnull).splitlines()[-1] == str(loaded)


def test_table_names_load_on_first_access():
    script = (
        "import skewcomp\n"
        "from skewcomp import CaseTable, compensation_experiment\n"
        "from skewcomp import experiment\n"
        "print(CaseTable is experiment.CaseTable, compensation_experiment is experiment.compensation_experiment)\n"
        "names = {}\n"
        "exec('from skewcomp import *', names)\n"
        "print(all(names[name] is getattr(skewcomp, name) for name in skewcomp.__all__))\n"
    )
    assert run_fresh(script).split() == ["True", "True", "True"]
    assert not hasattr(skewcomp, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        skewcomp.no_such_name
    assert set(skewcomp.__all__) <= set(dir(skewcomp))


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


def test_every_format_keyword_is_precision():
    # an (i, D, A) function takes a label or a FloatFormat as precision="binary32";
    # the helpers that take only a resolved FloatFormat call it fmt, with no default
    modules = [importlib.import_module(f"skewcomp.{info.name}") for info in pkgutil.iter_modules(skewcomp.__path__)]
    takes_a_format, wrong = set(), []
    for module in modules:
        for name in getattr(module, "__all__", ()):
            function = getattr(module, name)
            if not inspect.isfunction(function):
                continue
            parameters = list(inspect.signature(function).parameters.values())
            ida = [p.name for p in parameters[:3]] == ["i", "D", "A"]
            for p in parameters:
                if p.name not in ("fmt", "precision"):
                    continue
                if ida or p.default is not p.empty:
                    takes_a_format.add(name)
                    if (p.name, p.default) != ("precision", "binary32"):
                        wrong.append(f"{module.__name__}.{name}({p.name}={p.default!r})")
    assert wrong == []
    assert takes_a_format == {
        "clock_estimate",
        "emulated_clock_estimate",
        "candidate_interval",
        "reference_interval",
        "compensate",
        "naive_compensate",
    }


def test_range_of_half_the_clock_exits_1(capsys):
    code, out, err = run(capsys, "table2", "--range-ppm", "6e5", "-n", "10")
    assert code == 1
    assert out == ""
    assert err == "error: range_ppm must keep every A above D/2, got 600000 at D=1000000\n"


def test_range_past_the_digit_limit_exits_1_with_the_rule(capsys):
    code, out, err = run(capsys, "table2", "-n", "5", "--range-ppm", "1e5000")
    assert code == 1
    assert out == ""
    assert err == "error: range_ppm must keep every A above D/2, got a number over Python's 4300-digit limit at D=1000000\n"


def test_range_of_half_the_clock_at_an_odd_clock_runs(capsys):
    # at D = 3, 500000 ppm draws a least A of 2, above D/2
    code, out, _ = run(capsys, "table2", "-n", "10", "--D", "3", "--range-ppm", "5e5")
    assert code == 0
    assert _parse_table(out)[1] == TABLE2_HEADER


def test_range_that_draws_half_the_clock_exits_1(capsys):
    # 400000 ppm is below 500000, but at D = 2 it draws A = 1 = D/2
    code, out, err = run(capsys, "table3", "-n", "3", "--D", "2", "--range-ppm", "400000")
    assert code == 1
    assert out == ""
    assert err == "error: range_ppm must keep every A above D/2, got 400000 at D=2\n"


def test_nonpositive_clock_exits_1(capsys):
    code, out, err = run(capsys, "table2", "--D", "0", "-n", "5")
    assert code == 1
    assert out == ""
    assert err == "error: need D > 0, got 0\n"


@pytest.mark.parametrize("command, spelling", [("table2", ","), ("table3", " , ")])
def test_empty_i_list_is_a_usage_error(capsys, command, spelling):
    code, out, err = run(capsys, command, "--i", spelling)
    assert code == 1
    assert out == ""
    assert err.startswith("usage:") and "argument --i: empty i list" in err


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


def test_dash_or_empty_output_prints_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ("table2", "-n", "50", "--seed", "2", "--i", "1e6")
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    for output in ("-", ""):
        assert run(capsys, *argv, "-o", output) == (0, expected, ""), output
        assert list(tmp_path.iterdir()) == [], output


def test_json_output_file_holds_the_printed_bytes(tmp_path, capsys):
    target = tmp_path / "out.json"
    argv = ("table3", "-n", "200", "--seed", "1", "--i", "1e6,1e9", "--format", "json")
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "-o", str(target)) == (0, "", "")
    assert target.read_bytes() == printed.encode()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_the_run_quietly(unbuffered):
    # a reader such as head can close the pipe before the table is written: the write
    # fails inside the run when stdout is unbuffered, and at main's flush otherwise
    proc = subprocess.Popen(
        [sys.executable, "-m", "skewcomp.cli", "table3", "-n", "20000", "--D", "1e9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(PYTHONUNBUFFERED=unbuffered),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_main_leaves_the_collector_alone(capsys):
    # only the process entry point freezes the collector; in-process callers keep theirs
    before = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "table2", "-n", "1000", "--D", "1e9", "--i", "1e6")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_module_run_writes_the_bytes_of_main(tmp_path, capsys):
    argv = ["table2", "-n", "1000", "--D", "1e9", "-o"]
    proc = subprocess.run(
        [sys.executable, "-m", "skewcomp.cli", *argv, str(tmp_path / "module.csv")],
        capture_output=True,
        env=fresh_env(),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert run(capsys, *argv, str(tmp_path / "main.csv")) == (0, "", "")
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


def test_the_command_freezes_the_collector_before_it_exits():
    # the shutdown collections then skip what the imports made; the collector stays enabled
    script = (
        "import gc, runpy\n"
        "print(gc.get_freeze_count())\n"
        "try:\n"
        "    runpy.run_module('skewcomp.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0, gc.isenabled())\n"
    )
    out = run_fresh(script, "table2", "-n", "1000", "--D", "1e9", "-o", os.devnull)
    assert out.split() == ["0", "0", "True", "True"]


def test_installed_command_runs_the_entry_point_of_the_module_run():
    # read without tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', scripts, re.MULTILINE))
    (block,) = [
        node
        for node in ast.parse(inspect.getsource(cli)).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (statement,) = block.body
    name = statement.value.func.id
    assert targets == {"skewcomp": f"skewcomp.cli:{name}"}
    assert callable(getattr(cli, name))


def test_table_run_without_flags_uses_the_package_defaults(capsys):
    code, out, _ = run(capsys, "table2")
    assert code == 0
    meta, _, _ = _parse_table(out)
    for line in ("samples=100000", "seed=42", "D=1000000", "range_ppm=100", "i=1000000,10000000,100000000,1000000000"):
        assert f"# {line}" in meta, line


def test_unwritable_output_exits_1(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "t.csv"):
        code, out, err = run(capsys, "table2", "-n", "5", "-o", str(target))
        assert code == 1, target
        assert out == "", target
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert repr(str(target)) in err and "Traceback" not in err, err


SELFTEST_CHECKS = [
    "round_to_format idempotent and within one roundoff",
    "1-u and 1+2u representable, 1+u not",
    "pipeline value stays inside the coefficient bracket",
    "hardware and emulated pipelines agree",
    "compensate matches the exact oracle",
    "bounds_violated iff the oracle lies outside the candidate interval",
]


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    assert out == "".join(f"ok: {name}\n" for name in SELFTEST_CHECKS) + "selftest passed\n"
    assert err == ""


def test_selftest_failure_exits_2(capsys, monkeypatch):
    # an oracle one tick high fails exactly the two checks that read it
    monkeypatch.setattr(selfcheck, "oracle_nearest", lambda i, D, A: skewcomp.oracle_nearest(i, D, A) + 1)
    code, out, err = run(capsys, "selftest")
    assert code == 2
    expected = [f"ok: {name}" for name in SELFTEST_CHECKS[:4]] + [f"FAIL: {name}" for name in SELFTEST_CHECKS[4:]]
    lines = out.splitlines()
    assert len(lines) == 6 and all(map(str.startswith, lines, expected))
    assert err == "2 selftest failure(s)\n"


def test_version(capsys):
    assert main(["--version"]) == 0
    assert "skewcomp" in capsys.readouterr().out
