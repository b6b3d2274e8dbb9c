"""Record the reference outputs that the benchmark checks against.

Usage (from the root of a checkout, at the commit whose outputs are the
reference):

    python3 perfbench/record_references.py

Runs, once each, every full-size command that any seed can pick, checks
each output with the independent checks of check.py, and writes
perfbench/references.json. A reference holds, per command:

- count: one verdict letter per index, the certified non-member count and
  density_upper (the seed's tribonacci x = 30000 run pins them);
- primes: the CSV's SHA-256 and a 16-bit CRC per row;
- verify: the report's observations (z_count and friends).
"""

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def reference(outcome):
    c = outcome.command
    if c.kind == "count":
        rows = list(csv.reader(io.StringIO(outcome.csv_text)))[1:]
        summary = json.loads(outcome.stdout)
        return {"verdicts": check.encode_verdicts(row[1] for row in rows),
                "counts": summary["counts"],
                "certified_non_members": summary["certified_non_members"],
                "density_upper": summary["density_upper"]}
    if c.kind == "primes":
        return {"sha256": check.sha256(outcome.csv_text),
                "row_crc16": check.row_crcs(outcome.csv_text.splitlines()[1:])}
    return {"observations": dict(json.loads(outcome.stdout)["observations"])}


def all_commands():
    lists = (workloads.SIEVE_SPECS, workloads.SWEEP_SPECS,
             workloads.EXACT_WINDOWS, workloads.POW2_WINDOWS)
    commands = {}
    for workload in workloads.WORKLOADS:
        for seed in range(max(len(items) for items in lists)):
            for c in workloads.build(workload, seed):
                commands.setdefault(c.key, c)
    return commands


def main():
    references = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work:
        for key, c in sorted(all_commands().items()):
            outcome = run.run_command(c, Path(work), traced=False)
            attempted, failures = run.check_outcome(outcome, {})
            print(f"{outcome.ended - outcome.spawned:7.2f} s  {len(failures)}/{attempted} "
                  f"failed  {key}", file=sys.stderr)
            if failures:
                print("\n".join(failures[:10]), file=sys.stderr)
                return 1
            references[key] = reference(outcome)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
