"""Record the references that the output checks compare against.

    python3 perfbench/record_reference.py

Runs every task of every workload once for its exact fields and once per
reference seed for its simulated fields, at full and at smoke sizes, and
writes perfbench/reference.json.  The stored file was recorded on the seed
commit of the repository; record again only when a change is meant to alter
results, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
import workloads

FULL_SEEDS = list(range(32)) + [42, 1234]
SMOKE_SEEDS = list(range(4))


def record(package, table, seeds) -> dict:
    refs = {}
    outdir = run.WORK / "record"
    for tasks in table.values():
        for task in tasks:
            entry = {"exact": None, "sim": {}}
            for seed in (seeds if task.seeded else [None]):
                shutil.rmtree(outdir, ignore_errors=True)
                code = package.cli.main(workloads.task_argv(task, seed, str(outdir)))
                if code != 0:
                    raise SystemExit(f"{task.label} seed {seed}: exit code {code}")
                out = checks.extract(task.kind, outdir, seed)
                if out.problems:
                    raise SystemExit(f"{task.label} seed {seed}: {out.problems}")
                if entry["exact"] is None:
                    entry["exact"] = out.exact
                elif entry["exact"] != out.exact:
                    raise SystemExit(f"{task.label}: exact fields depend on the seed")
                if task.seeded:
                    entry["sim"][str(seed)] = {"sim": out.sim, "mixed": out.mixed}
            refs[task.label] = entry
            print(f"recorded {task.label}", file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return refs


def main() -> int:
    package = run.load_package()
    run.WORK.mkdir(exist_ok=True)
    refs = {"smoke": record(package, workloads.SMOKE, SMOKE_SEEDS),
            "full": record(package, workloads.FULL, FULL_SEEDS)}
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
