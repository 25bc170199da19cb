"""Regenerate frozen.json: the values every benchmark job is checked against.

    PYTHONPATH=src python3 perfbench/freeze.py

Only do this deliberately, on the code the values should pin: the
benchmark compares every later run against them at 1e-10 relative.  Each
case must first pass the rest of the oracle (exit codes, pass columns,
tolerance bands, resume identity, the repository's reference fixture).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads


def main() -> int:
    frozen = {}
    for scale in sorted(workloads.SCALES):
        for name in workloads.DECLARED_SPANS:
            table = frozen.setdefault(name, {}).setdefault(scale, {})
            for case in range(workloads.POOL):
                spec = workloads.Spec(name, scale, case)
                work = tempfile.mkdtemp(prefix="freeze-", dir=os.path.dirname(workloads.HERE))
                try:
                    ops = workloads.run_job(spec, work)
                    seen = workloads.observe(spec, work, ops)
                    fails = workloads.check(spec, work, ops, {name: {scale: {str(case): seen}}})
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                bad = [f"{label}: {m}" for label, msgs in fails.items() for m in msgs]
                if bad:
                    print(f"{name}/{scale}/case {case} fails the oracle:\n  " + "\n  ".join(bad), file=sys.stderr)
                    return 1
                table[str(case)] = seen
                print(f"{name}/{scale}/case {case} frozen", flush=True)
    with open(workloads.FROZEN, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
