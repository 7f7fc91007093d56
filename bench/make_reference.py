"""Rewrite ``reference_values.json`` from the current program.

    python3 bench/make_reference.py

Runs one job of every workload on its default-seed scenario, checks the
invariants, and records the values that later runs compare against. Run it
only when a change is meant to move the outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import checks
from run import WORK, Run
from workloads import DEFAULT_SEED, WORKLOADS, scenario


def main() -> int:
    entries = {}
    for name, workload in WORKLOADS.items():
        text = scenario(workload, DEFAULT_SEED)
        directory = WORK / f"reference-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        try:
            run = Run(workload, text, directory, reference=None)
            job = run.job()
            if not job["ok"]:
                print(f"{name}: {job['problems']}", file=sys.stderr)
                return 1
            entries[name] = {"scenario_sha256": hashlib.sha256(text).hexdigest(),
                             "values": run.baseline["values"]}
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
    checks.REFERENCE_VALUES.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
