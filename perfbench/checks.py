"""Correctness checks on table bytes: recorded digests and seed-independent invariants.

Digests pin the exact bytes of each table run the benchmark ships, so a
faster program that prints different tables fails the run.  For a seed
with no recorded digest, only what holds on every seed is checked.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# expected layout, written out rather than imported from skewcomp so that a
# change to the program cannot change what the check expects

TABLE2_HEADER = "method,precision,i,dlb_min,dlb_max,dlb_avg,dub_min,dub_max,dub_avg"
TABLE3_HEADER = "algorithm,precision,i,err_min,err_max,err_avg,iter_min,iter_max,iter_avg,violations"
TABLE2_CONFIGS = (
    ("theoretical", "binary64"),
    ("theoretical", "binary32"),
    ("practical", "binary32"),
    ("approximate", "binary32"),
)
TABLE3_ALGORITHMS = (("naive", "binary32"), ("practical", "binary32"), ("approximate", "binary32"))


def table_key(table: str, D: int, n: int, seed: int, i_list) -> str:
    return f"{table} D={D} n={n} seed={seed} i={','.join(str(i) for i in i_list)}"


def load_digests(path=DIGESTS_PATH) -> dict[str, str]:
    with open(path) as f:
        return json.load(f)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_table(table: str, data: bytes, key: str, i_list, digests: dict[str, str]) -> list[str]:
    """Problems found in one table's bytes; empty when the table is correct."""
    problems = []
    want = digests.get(key)
    if want is not None and digest(data) != want:
        problems.append(f"{key}: bytes differ from the recorded digest")
    problems.extend(f"{key}: {p}" for p in _invariant_problems(table, data, i_list))
    return problems


def _invariant_problems(table: str, data: bytes, i_list) -> list[str]:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return ["output is not ASCII"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return ["no table rows"]
    header = TABLE2_HEADER if table == "table2" else TABLE3_HEADER
    if lines[0] != header:
        return [f"header {lines[0]!r} != {header!r}"]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    configs = TABLE2_CONFIGS if table == "table2" else TABLE3_ALGORITHMS
    first = "method" if table == "table2" else "algorithm"
    want_rows = [(name, precision, str(i)) for name, precision in configs for i in i_list]
    got_rows = [(row[first], row["precision"], row["i"]) for row in rows]
    if got_rows != want_rows:
        return [f"row set {got_rows} != {want_rows}"]
    problems = []
    if table == "table3":
        for row in rows:
            where = f"{row['algorithm']} i={row['i']}"
            if row["algorithm"] in ("practical", "approximate"):
                if not -1 <= int(row["err_min"]) <= int(row["err_max"]) <= 0:
                    problems.append(f"{where}: err outside {{-1, 0}}")
            if row["algorithm"] == "practical" and int(row["violations"]) != 0:
                problems.append(f"{where}: {row['violations']} practical violations")
    return problems
