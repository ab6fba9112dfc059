"""Record the sha256 of every table the workloads produce, for the shipped seeds.

    python3 perfbench/record_digests.py            # seeds 0..49, every workload
    python3 perfbench/record_digests.py 7 1234     # only these seeds

Run it only at a commit whose tables are known to be right: the timed and
traced runs fail on any table whose bytes differ from its recorded digest.
A table that breaks the seed-independent invariants is not recorded.
Entries already in digests.json are kept unless the same key is recorded again.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads

SHIPPED_SEEDS = range(50)


def main(argv: list[str]) -> int:
    seeds = [int(arg) for arg in argv] or list(SHIPPED_SEEDS)
    digests = checks.load_digests()
    env = workloads.child_env()
    workloads.OUT.mkdir(exist_ok=True)
    status = 0
    for w in workloads.WORKLOADS.values():
        for seed in seeds:
            for table in ("table2", "table3"):
                out_path = workloads.OUT / f"{table}-{w.name}-record.csv"
                args = workloads.table_args(table, w, seed, out_path)
                _, code, output = workloads.run_child([sys.executable, "-m", "skewcomp.cli", *args], env)
                key = checks.table_key(table, w.D, w.samples, seed, workloads.I_LIST)
                problems = workloads.table_problems(table, w, seed, out_path, code, output, {})
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    status = 1
                    continue
                digests[key] = checks.digest(out_path.read_bytes())
                print(key, digests[key], flush=True)
    with open(checks.DIGESTS_PATH, "w") as f:
        json.dump(dict(sorted(digests.items())), f, indent=1)
        f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
