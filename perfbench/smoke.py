"""The benchmark's own tests: a tiny-n run of every workload.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Each workload runs at ``--scale smoke`` untraced and traced.  Both must pass
the correctness oracle against the frozen smoke values and report exactly
the metrics BENCHMARK.json declares; the traced run also fails if a declared
span never fires.  A copy of the benchmark without the source tree must
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim", "monitor", "verify")


def _bench(root: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _declared(key: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[key]]


def check_workload(workload: str, trace: int) -> None:
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    assert sorted(result["metrics"]) == sorted(_declared("per_layer" if trace else "end_to_end"))


def test_untraced_runs():
    for workload in WORKLOADS:
        check_workload(workload, 0)


def test_traced_runs():
    for workload in WORKLOADS:
        check_workload(workload, 1)


def test_refuses_without_source_tree():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(tmp, "--workload", "sim", "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} ok", flush=True)
