"""Record the reference rows the output checks compare against.

    python3 perfbench/record_reference.py

Run once, on the commit the reference belongs to.  For every workload and
input variant that ``reference.json`` has no rows for, it runs one
untraced unit and stores the unit's rows.  Rows already in the file are
never rewritten: to record a variant again, delete its key by hand.  The
benchmark itself only reads the file.
"""

from __future__ import annotations

import json
import os
import sys
import time

import inputs
import run


def main() -> int:
    os.chdir(run.ROOT)
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in run.WORKLOADS:
        variants = range(inputs.VARIANTS) if workload in inputs.SEEDED_WORKLOADS else range(1)
        for variant in variants:
            key = f"{workload}/{variant}"
            if key in reference:
                print(f"{key}: kept")
                continue
            spec_path = run.make_inputs(workload, variant)
            result, _ = run.workload_run(workload, spec_path, 0, 0, time.monotonic() + run.CHILD_LIMIT_S)
            unit = result["units"][0]
            if unit["failures"]:
                print(f"{key}: not recorded, the unit failed: {unit['failures']}", file=sys.stderr)
                return 1
            reference[key] = unit["rows"]
            print(f"{key}: recorded {len(unit['rows'])} rows")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
